// The op-based workloads' two phases.
//
// Timed (--trace 0): the fixed op list runs in order, cycling, until the
// run's seconds are up and the list has run once. Every repeat of an op
// must reproduce its first outcome bit for bit. accuracy_pct and the exact
// counts cover one pass of the list, so they do not depend on speed.
//
// Traced (--trace 1): one untraced pass of the real ops, then one traced
// pass of their replays, which call the layers' public functions inside
// benchmark spans. Replays must reproduce the real ops' accuracy bits and
// exact counts. The tracing overhead compares the first third of the
// traced replays with an untraced pass of the same replays.

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/telemetry.h"
#include "workloads.h"

namespace gpbench {
namespace {

// The exact-count line both phases print; the self-test compares it
// between invocations.
void PrintCounts(double accuracy_pct,
                 const std::map<std::string, int64_t>& counts) {
  std::printf("counts {\"accuracy_pct_bits\": \"%016" PRIx64 "\"",
              Bits(accuracy_pct));
  for (const auto& [name, value] : counts) {
    std::printf(", \"%s\": %" PRId64, name.c_str(), value);
  }
  std::printf("}\n");
}

double ListAccuracy(const std::vector<OpOutcome>& outcomes) {
  double sum = 0.0;
  for (const OpOutcome& o : outcomes) sum += o.accuracy;
  return outcomes.empty() ? 0.0 : sum / static_cast<double>(outcomes.size());
}

std::map<std::string, int64_t> ExactCounts(const OpWorkload& w,
                                           const CounterDeltas& c) {
  std::map<std::string, int64_t> counts;
  for (const std::string& name : w.exact_counters) counts[name] = c.Delta(name);
  if (!w.units_counter.empty()) {
    counts[w.units_counter] = c.Delta(w.units_counter);
  }
  return counts;
}

int TimedPhase(const Args& args, const OpWorkload& w, double setup_s,
               Report* report) {
  std::vector<OpOutcome> first(static_cast<size_t>(w.list_ops));
  std::map<std::string, int64_t> counts;
  std::vector<double> unit_ms;
  // Throughput is the median rate over windows of window_ops consecutive
  // ops, so a short stall on the shared host moves it less than it moves
  // the mean.
  std::vector<double> window_rates;
  int64_t window_units = 0, window_start = 0;
  int64_t attempted = 0, ok = 0, failed = 0, units = 0, within_slo = 0;
  gp::Counter* const units_counter =
      gp::Telemetry().GetCounter(w.units_counter);
  CounterDeltas counters;
  counters.Start();
  const int64_t start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (int64_t i = 0;; ++i) {
    if (i >= w.list_ops && NowNs() - start >= budget_ns) break;
    const int idx = static_cast<int>(i % w.list_ops);
    const int64_t units_before = units_counter->Value();
    const int64_t t0 = NowNs();
    if (i % w.window_ops == 0) {
      window_start = t0;
      window_units = 0;
    }
    const OpOutcome o = w.run_op(idx);
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    // The op's own count of its units must agree with the program's.
    if (units_counter->Value() - units_before != o.units) {
      report->Fail(std::string(w.name) + " op " + std::to_string(idx) +
                   " counted " + std::to_string(o.units) + " " +
                   w.unit_name + "s, the program " +
                   std::to_string(units_counter->Value() - units_before));
    }
    ++attempted;
    if (o.ok && o.units > 0) {
      ++ok;
      units += o.units;
      const double per_unit = ms / static_cast<double>(o.units);
      unit_ms.push_back(per_unit);
      if (per_unit <= w.slo_ms_per_unit) ++within_slo;
    } else {
      ++failed;
    }
    window_units += o.ok ? o.units : 0;
    if ((i + 1) % w.window_ops == 0) {
      window_rates.push_back(static_cast<double>(window_units) * 1e9 /
                             static_cast<double>(NowNs() - window_start));
    }
    if (i < w.list_ops) {
      first[idx] = o;
      if (i == w.list_ops - 1) counts = ExactCounts(w, counters);
    } else if (o.ok != first[idx].ok ||
               Bits(o.accuracy) != Bits(first[idx].accuracy) ||
               Bits(o.check) != Bits(first[idx].check) ||
               o.units != first[idx].units) {
      report->Fail(std::string(w.name) + " op " + std::to_string(idx) +
                   " did not reproduce its first outcome");
    }
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  report->set_attempted(attempted);
  report->set_failed(failed);

  const double accuracy = ListAccuracy(first);
  PrintCounts(accuracy, counts);
  std::printf("timed: %" PRId64 " ops (%" PRId64 " %ss) in %.3f s, %d-op "
              "list ran %.2f times, %zu throughput windows; ms per %s p90 "
              "%.3f, p99 %.3f\n",
              attempted, units, w.unit_name, elapsed_s, w.list_ops,
              static_cast<double>(attempted) / w.list_ops,
              window_rates.size(), w.unit_name, Quantile(unit_ms, 0.90),
              Quantile(unit_ms, 0.99));

  report->Metric("setup_s", setup_s, "s");
  report->Metric("throughput_per_s", Median(window_rates), "1/s");
  report->Metric("latency_p50_ms", Quantile(unit_ms, 0.50), "ms");
  report->Metric("slo_met_pct",
                 100.0 * static_cast<double>(within_slo) /
                     static_cast<double>(attempted),
                 "%");
  report->Metric("accuracy_pct", accuracy, "%");
  report->Metric("ok_pct",
                 100.0 * static_cast<double>(ok) /
                     static_cast<double>(attempted),
                 "%");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  return 0;
}

int TracedPhase(const Args& args, const OpWorkload& w, Report* report) {
  // Untraced pass of the real ops.
  std::vector<OpOutcome> real(static_cast<size_t>(w.list_ops));
  CounterDeltas real_counters;
  real_counters.Start();
  std::vector<double> unit_ms;
  for (int idx = 0; idx < w.list_ops; ++idx) {
    const int64_t op_start = NowNs();
    real[idx] = w.run_op(idx);
    if (real[idx].units > 0) {
      unit_ms.push_back(static_cast<double>(NowNs() - op_start) / 1e6 /
                        static_cast<double>(real[idx].units));
    }
  }
  const std::map<std::string, int64_t> real_counts =
      ExactCounts(w, real_counters);

  // Untraced pass of the first third of the replays: the baseline of the
  // tracing overhead.
  const int overhead_ops = std::max(1, w.list_ops / 3);
  int64_t t0 = NowNs();
  for (int idx = 0; idx < overhead_ops; ++idx) w.replay_op(idx);
  const double untraced_ms = static_cast<double>(NowNs() - t0) / 1e6;

  // Traced pass of the replays.
  std::vector<OpOutcome> replayed(static_cast<size_t>(w.list_ops));
  ClearSpans();
  CounterDeltas counters;
  counters.Start();
  SetSpanRecording(true);
  double traced_ms = 0.0;
  t0 = NowNs();
  for (int idx = 0; idx < w.list_ops; ++idx) {
    SetCurrentOp(static_cast<uint32_t>(idx + 1));
    replayed[idx] = w.replay_op(idx);
    if (idx + 1 == overhead_ops) {
      traced_ms = static_cast<double>(NowNs() - t0) / 1e6;
    }
  }
  SetSpanRecording(false);

  int64_t attempted = 0, failed = 0, replay_units = 0;
  for (int idx = 0; idx < w.list_ops; ++idx) {
    attempted += 2;
    failed += (real[idx].ok ? 0 : 1) + (replayed[idx].ok ? 0 : 1);
    replay_units += replayed[idx].units;
    if (Bits(real[idx].accuracy) != Bits(replayed[idx].accuracy) ||
        Bits(real[idx].check) != Bits(replayed[idx].check) ||
        real[idx].units != replayed[idx].units) {
      report->Fail(std::string(w.name) + " replay of op " +
                   std::to_string(idx) + " differs from the real op (" +
                   std::to_string(replayed[idx].accuracy) + " vs " +
                   std::to_string(real[idx].accuracy) + ")");
    }
  }
  report->set_attempted(attempted);
  report->set_failed(failed);
  for (const std::string& name : w.exact_counters) {
    if (counters.Delta(name) != real_counts.at(name)) {
      report->Fail("replayed " + name + " " +
                   std::to_string(counters.Delta(name)) + " != real " +
                   std::to_string(real_counts.at(name)));
    }
  }
  if (!w.units_counter.empty() &&
      replay_units != real_counts.at(w.units_counter)) {
    report->Fail("replayed units != " + w.units_counter);
  }
  PrintCounts(ListAccuracy(real), real_counts);

  const double op_ms = PrintLayerTable(w.op_span, report);
  const std::vector<LayerRow> table = LayerTable();
  int64_t ops = 0;
  double op_self_ms = 0.0;
  for (const LayerRow& row : table) {
    if (row.name == w.op_span) {
      ops = row.count;
      op_self_ms = row.self_ms;
    }
  }
  const double overhead_pct = 100.0 * (traced_ms - untraced_ms) / untraced_ms;
  std::printf("tracing overhead: first %d replays traced %.1f ms vs "
              "untraced %.1f ms = %+.2f%% (all op spans %.1f ms)\n",
              overhead_ops, traced_ms, untraced_ms, overhead_pct, op_ms);

  std::map<std::string, double> values;
  for (const auto& [metric, span] : w.layer_spans) {
    values[metric] = LayerMsPerOp(table, span, ops);
  }
  values[std::string(w.name) + ".unattributed_ms"] =
      ops > 0 ? op_self_ms / static_cast<double>(ops) : 0.0;
  values["trace.overhead_pct"] = overhead_pct;
  values["tail.latency_p90_ms"] = Quantile(unit_ms, 0.90);
  values["tail.latency_p99_ms"] = Quantile(unit_ms, 0.99);
  AddCounterLayerValues(counters, &values);
  values["host.spin_ms"] = SpinMillis();
  ReportPerLayer(values, report);

  const std::string path = args.out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + "-spans.jsonl";
  if (!WriteSpans(path)) report->Fail("cannot write " + path);
  std::printf("spans: %zu written to %s\n", RecordedSpans().size(),
              path.c_str());
  return 0;
}

}  // namespace

uint64_t OpSeed(uint64_t seed, uint64_t salt, uint64_t i) {
  // SplitMix64 over (seed, salt, i).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL +
               i * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void CounterDeltas::Start() {
  before_.clear();
  for (const gp::CounterSample& c : gp::Telemetry().Snapshot().counters) {
    before_[c.name] = c.value;
  }
}

int64_t CounterDeltas::Delta(const std::string& name) const {
  const auto it = before_.find(name);
  return CounterValue(name) - (it == before_.end() ? 0 : it->second);
}

void AddCounterLayerValues(const CounterDeltas& c,
                           std::map<std::string, double>* values) {
  auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };
  auto& v = *values;
  v["generator.subgraphs"] =
      static_cast<double>(c.Delta("generator/subgraphs"));
  v["generator.recon_edges"] =
      static_cast<double>(c.Delta("generator/recon_edges"));
  v["generator.unique_edge_ratio"] =
      ratio(c.Delta("generator/recon_unique_edges"),
            c.Delta("generator/recon_edges"));
  v["selector.scored_pairs"] =
      static_cast<double>(c.Delta("selector/scored_pairs"));
  const int64_t hits = c.Delta("augmenter/cache_hits");
  v["augmenter.hit_ratio"] =
      ratio(hits, hits + c.Delta("augmenter/cache_misses"));
  v["augmenter.inserts"] = static_cast<double>(c.Delta("augmenter/inserts"));
  v["augmenter.evictions"] =
      static_cast<double>(c.Delta("augmenter/evictions"));
  const int64_t pool_hits = c.Delta("alloc/pool_hits");
  v["tensor.pool_hit_ratio"] =
      ratio(pool_hits, pool_hits + c.Delta("alloc/pool_misses"));
  v["parallel.serial_region_ratio"] =
      ratio(c.Delta("parallel/serial_regions"), c.Delta("parallel/regions"));
}

void ReportPerLayer(const std::map<std::string, double>& values,
                    Report* report) {
  // Must match per_layer in BENCHMARK.json (the self-test checks it).
  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"serve.batch_size_mean", "count"},
      {"serve.batch_wait_ms_mean", "ms"},
      {"serve.batches", "count"},
      {"serve.flush_window", "count"},
      {"serve.flush_size", "count"},
      {"serve.flush_deadline", "count"},
      {"serve.shed", "count"},
      {"serve.deadline_exceeded", "count"},
      {"serve.server_ms_p50", "ms"},
      {"serve.outside_eval_ms_p50", "ms"},
      {"loadgen.lag_ms_p99", "ms"},
      {"tail.latency_p90_ms", "ms"},
      {"tail.latency_p99_ms", "ms"},
      {"batch_eval.prepare_ms", "ms"},
      {"batch_eval.finish_ms", "ms"},
      {"generator.sample_ms", "ms"},
      {"generator.embed_ms", "ms"},
      {"generator.subgraphs", "count"},
      {"generator.recon_edges", "count"},
      {"generator.unique_edge_ratio", "ratio"},
      {"selector.importance_ms", "ms"},
      {"selector.knn_ms", "ms"},
      {"selector.scored_pairs", "count"},
      {"augmenter.observe_ms", "ms"},
      {"augmenter.hit_ratio", "ratio"},
      {"augmenter.inserts", "count"},
      {"augmenter.evictions", "count"},
      {"task_graph.forward_ms", "ms"},
      {"task_graph.forward_batch_ms", "ms"},
      {"pretrain.step_ms", "ms"},
      {"episode.sample_ms", "ms"},
      {"pretrain.forward_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"optimizer.step_ms", "ms"},
      {"tensor.pool_hit_ratio", "ratio"},
      {"parallel.serial_region_ratio", "ratio"},
      {"serve-overlap.unattributed_ms", "ms"},
      {"eval-manyway.unattributed_ms", "ms"},
      {"pretrain.unattributed_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"host.spin_ms", "ms"},
  };
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = values.find(name);
    report->Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool listed = false;
    for (const auto& [known, unit] : kPerLayer) listed |= name == known;
    if (!listed) report->Fail("per-layer value " + name + " is not listed");
  }
}

int RunOpWorkload(const Args& args, int64_t process_start_ns,
                  const OpWorkload& w, Report* report) {
  w.setup();
  for (int k = 0; k < w.warmup_ops; ++k) {
    if (!w.warmup_op(k).ok) report->Fail("warm-up op failed");
  }
  const double setup_s = FinishSetup(args, process_start_ns, report);
  if (args.setup_only) return report->correct() ? 0 : 1;
  return args.trace ? TracedPhase(args, w, report)
                    : TimedPhase(args, w, setup_s, report);
}

double FinishSetup(const Args& args, int64_t process_start_ns,
                   Report* report) {
  const double own = static_cast<double>(NowNs() - process_start_ns) / 1e9;
  if (args.setup_only) {
    std::printf("setup_s %.9f\n", own);
    return own;
  }
  std::printf("setup 1/%d (this process): %.4f s\n",
              args.trace ? 1 : kColdSetups, own);
  if (args.trace) return own;
  std::vector<double> all = ColdSetups(args, kColdSetups - 1);
  if (all.size() != kColdSetups - 1) {
    report->Fail("a set-up in a child process failed");
    return own;
  }
  for (size_t i = 0; i < all.size(); ++i) {
    std::printf("setup %zu/%d (child process): %.4f s\n", i + 2,
                kColdSetups, all[i]);
  }
  all.push_back(own);
  return Median(all);
}

}  // namespace gpbench
