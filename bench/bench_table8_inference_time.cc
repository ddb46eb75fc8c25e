// Table VIII: inference time per query (ms) on FB15K-237 and NELL with
// 10/20/40 classes — Prodigy vs GraphPrompter. Uses google-benchmark for
// the timing loop. The paper reports GraphPrompter costing ~2-3x Prodigy
// per query (N-candidate retrieval + 2k prompts in the task graph).
//
// Measured per iteration: embed one query's data graph, run the task graph
// over the already-selected prompts (plus cached pseudo-prompts for
// GraphPrompter), and update the cache.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace gp::bench {
namespace {

// Everything an inference step needs, prepared once per (method, ways).
struct EpisodeContext {
  std::unique_ptr<GraphPrompterModel> model;
  DatasetBundle dataset;
  FewShotTask task;
  Tensor prompt_emb;                 // refined prompt set S-hat
  std::vector<int> prompt_labels;
  std::unique_ptr<PromptAugmenter> augmenter;
  std::vector<int> query_pool;       // item ids to cycle through
  int ways = 0;
  Rng rng{12345};
};

// Globals keyed by (is_ours, ways); built lazily so each combination
// pretrains exactly once even though benchmarks re-enter.
EpisodeContext* GetContext(bool is_ours, int ways, const Env& env) {
  static std::map<std::pair<bool, int>, std::unique_ptr<EpisodeContext>>
      contexts;
  auto key = std::make_pair(is_ours, ways);
  auto it = contexts.find(key);
  if (it != contexts.end()) return it->second.get();

  auto ctx = std::make_unique<EpisodeContext>();
  ctx->ways = ways;
  static DatasetBundle wiki = MakeWikiSim(env.scale, env.seed);
  ctx->dataset = MakeFb15kSim(env.scale, env.seed + 3);

  GraphPrompterConfig config =
      is_ours ? FullGraphPrompterConfig(wiki.graph.feature_dim(),
                                        env.seed + 2)
              : ProdigyConfig(wiki.graph.feature_dim(), env.seed + 2);
  ctx->model = MakePretrained(config, wiki, env);

  // Build one episode and run the selection stage once (its cost is
  // amortised over all of an episode's queries in Algorithm 2).
  NoGradGuard no_grad;
  EpisodeSampler sampler(&ctx->dataset);
  EpisodeConfig episode;
  episode.ways = ways;
  episode.candidates_per_class = 10;
  episode.num_queries = 16;
  auto task_or = sampler.Sample(episode, &ctx->rng);
  CHECK_OK(task_or.status());
  ctx->task = *task_or;

  std::vector<int> cand_items, cand_labels;
  for (const auto& ex : ctx->task.candidates) {
    cand_items.push_back(ex.item);
    cand_labels.push_back(ex.label);
  }
  Tensor cand_emb =
      ctx->model->generator().EmbedItems(ctx->dataset, cand_items, &ctx->rng);
  std::vector<int> query_items;
  for (const auto& ex : ctx->task.queries) query_items.push_back(ex.item);
  Tensor query_emb =
      ctx->model->generator().EmbedItems(ctx->dataset, query_items, &ctx->rng);

  std::vector<int> selected;
  if (is_ours) {
    Tensor cand_imp = ctx->model->selection().Importance(cand_emb);
    Tensor query_imp = ctx->model->selection().Importance(query_emb);
    KnnConfig knn;
    knn.shots = 3;
    const auto sel = SelectPrompts(cand_emb, cand_imp, cand_labels,
                                   query_emb, query_imp, ways, knn);
    selected = sel.selected;
    cand_emb = RowScale(cand_emb, cand_imp);
  } else {
    for (int cls = 0; cls < ways; ++cls) {
      int kept = 0;
      for (size_t p = 0; p < cand_labels.size() && kept < 3; ++p) {
        if (cand_labels[p] == cls) {
          selected.push_back(static_cast<int>(p));
          ++kept;
        }
      }
    }
  }
  ctx->prompt_emb = GatherRows(cand_emb, selected);
  for (int p : selected) ctx->prompt_labels.push_back(cand_labels[p]);

  ctx->augmenter = std::make_unique<PromptAugmenter>(
      ctx->model->config().augmenter, env.seed + 99);
  for (const auto& ex : ctx->task.queries) ctx->query_pool.push_back(ex.item);

  contexts[key] = std::move(ctx);
  return contexts[key].get();
}

Env* g_env = nullptr;

// One iteration = one query through the full inference path.
void BM_InferencePerQuery(benchmark::State& state) {
  const bool is_ours = state.range(0) == 1;
  const int ways = static_cast<int>(state.range(1));
  EpisodeContext* ctx = GetContext(is_ours, ways, *g_env);
  NoGradGuard no_grad;
  size_t cursor = 0;
  for (auto _ : state) {
    const int item = ctx->query_pool[cursor++ % ctx->query_pool.size()];
    Tensor query_emb =
        ctx->model->generator().EmbedItems(ctx->dataset, {item}, &ctx->rng);

    Tensor prompts = ctx->prompt_emb;
    std::vector<int> labels = ctx->prompt_labels;
    if (is_ours) {
      const auto cached = ctx->augmenter->GetCachedPrompts(
          ctx->model->config().embedding_dim);
      if (cached.embeddings.rows() > 0) {
        prompts = ConcatRows({prompts, cached.embeddings});
        labels.insert(labels.end(), cached.labels.begin(),
                      cached.labels.end());
      }
    }
    const auto out = ctx->model->task_net().Forward(prompts, labels,
                                                    query_emb, ctx->ways);
    const auto pred = ArgmaxRows(out.query_scores);
    benchmark::DoNotOptimize(pred);
    if (is_ours) {
      ctx->augmenter->ObserveQueries(query_emb, pred, {0.9f}, 1);
    }
  }
  state.counters["ms_per_query"] = benchmark::Counter(
      1e3 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// One per-config measurement, captured from the google-benchmark run so
// the results can be written as CSV + JSON for perf-trajectory tracking.
struct CapturedRun {
  std::string method;
  int ways = 0;
  double ms_per_query = 0.0;
  int64_t iterations = 0;
};

// Forwards to the console reporter for the usual human-readable output
// while recording each run's adjusted per-iteration wall time.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const std::string name = run.benchmark_name();
      CapturedRun captured;
      captured.method = name.find("GraphPrompter") != std::string::npos
                            ? "GraphPrompter"
                            : "Prodigy";
      const size_t ways_pos = name.find("ways:");
      if (ways_pos != std::string::npos) {
        captured.ways = std::atoi(name.c_str() + ways_pos + 5);
      }
      captured.ms_per_query = run.GetAdjustedRealTime();  // kMillisecond unit
      captured.iterations = run.iterations;
      results.push_back(captured);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<CapturedRun> results;
};

void WriteResults(const std::vector<CapturedRun>& results, const Env& env) {
  TablePrinter table({"method", "ways", "ms_per_query", "iterations",
                      "threads"});
  BenchReporter report("table8_inference_time");
  report.AddConfig("scale", env.scale);
  report.AddConfig("seed", static_cast<int64_t>(env.seed));
  report.AddConfig("threads", static_cast<int64_t>(env.threads));
  AddHostConfig(&report);
  for (const CapturedRun& run : results) {
    table.AddRow({run.method, std::to_string(run.ways),
                  TablePrinter::Num(run.ms_per_query, 4),
                  std::to_string(run.iterations),
                  std::to_string(env.threads)});
    const std::string cell =
        run.method + "/ways=" + std::to_string(run.ways);
    report.AddMetric(cell + "/ms_per_query", run.ms_per_query, "ms");
    report.AddMetric(cell + "/iterations",
                     static_cast<double>(run.iterations), "iters");
  }
  WriteCsvOrWarn(table, env.outdir + "/table8_inference_time.csv");
  const Status status = report.WriteJson(env.outdir);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
}

}  // namespace
}  // namespace gp::bench

int main(int argc, char** argv) {
  gp::bench::Env env = gp::bench::ParseEnv(argc, argv);
  env.pretrain_steps = std::min(env.pretrain_steps, 150);  // timing only
  gp::bench::g_env = &env;

  for (int ours : {0, 1}) {
    for (int ways : {10, 20, 40}) {
      std::string name = std::string("BM_InferencePerQuery/") +
                         (ours ? "GraphPrompter" : "Prodigy") + "/ways:" +
                         std::to_string(ways);
      benchmark::RegisterBenchmark(name.c_str(),
                                   gp::bench::BM_InferencePerQuery)
          ->Args({ours, ways})
          ->Unit(benchmark::kMillisecond)
          ->MinTime(0.5);
    }
  }
  // Our own flags (--scale etc.) are not google-benchmark flags; pass a
  // bare argv so Initialize does not reject them.
  int bench_argc = 1;
  benchmark::Initialize(&bench_argc, argv);
  gp::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  gp::bench::WriteResults(reporter.results, env);
  const gp::Status obs_status = gp::ExportConfiguredObservability();
  if (!obs_status.ok()) {
    std::fprintf(stderr, "warning: %s\n", obs_status.ToString().c_str());
  }

  std::printf(
      "\nPaper reference (Table VIII, FB15K-237 / NELL, ms per query):\n"
      "  Prodigy       10: 34/26   20: 68/42   40: 106/82\n"
      "  GraphPrompter 10: 90/80   20: 150/120 40: 280/240\n"
      "Expected shape: GraphPrompter costs ~2-3x Prodigy per query, growing\n"
      "with the class count. Absolute values differ (CPU vs A100 setup).\n");
  return 0;
}
