// The evaluation core (Algorithm 2): EvaluateInContext and BatchEvaluation
// both run (request, trial) units through one prepare body (stages 1-2)
// and one finish body (stage 3).

#include "core/batch_eval.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/pipeline.h"
#include "util/stopwatch.h"

namespace gp {
namespace {

// Row-wise max softmax probability of `scores` — prediction confidence.
// Rows are independent, so the batch splits into parallel chunks with
// disjoint writes; chunking is fixed, so results match a serial run.
std::vector<float> SoftmaxConfidence(const Tensor& scores) {
  const int rows = scores.rows();
  const int cols = scores.cols();
  std::vector<float> out(rows);
  const float* data = scores.data().data();
  const int64_t grain =
      std::max<int64_t>(1, (int64_t{1} << 13) / std::max(cols, 1));
  ParallelFor(0, rows, grain, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      const float* row = data + static_cast<size_t>(r) * cols;
      float mx = row[0];
      for (int c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
      float total = 0.0f, best = 0.0f;
      for (int c = 0; c < cols; ++c) {
        const float e = std::exp(row[c] - mx);
        total += e;
        best = std::max(best, e);
      }
      out[r] = best / total;
    }
  });
  return out;
}

// Indices of rows containing any non-finite value. A read-only scan: on a
// clean run it finds nothing and the pipeline below is byte-for-byte the
// unvalidated one.
std::vector<int> NonFiniteRows(const Tensor& t) {
  std::vector<int> bad;
  for (int r = 0; r < t.rows(); ++r) {
    if (!t.RowFinite(r)) bad.push_back(r);
  }
  return bad;
}

// Zeroes the given rows in place (query sanitization: a query must still be
// predicted, so it degrades to the origin instead of being dropped).
void ZeroRows(Tensor* t, const std::vector<int>& rows) {
  float* data = t->mutable_data().data();
  const int cols = t->cols();
  for (int r : rows) {
    std::fill_n(data + static_cast<size_t>(r) * cols, cols, 0.0f);
  }
}

// Prodigy-style selection: `shots` random candidates per class. Shared by
// the random_prompt_selection config and the last rung of the degradation
// ladder.
std::vector<int> RandomSelection(const std::vector<int>& candidate_labels,
                                 int ways, int shots, Rng* rng) {
  std::vector<int> selected;
  for (int cls = 0; cls < ways; ++cls) {
    std::vector<int> members;
    for (size_t p = 0; p < candidate_labels.size(); ++p) {
      if (candidate_labels[p] == cls) {
        members.push_back(static_cast<int>(p));
      }
    }
    rng->Shuffle(&members);
    const int keep = std::min<int>(shots, members.size());
    for (int i = 0; i < keep; ++i) selected.push_back(members[i]);
  }
  return selected;
}

// Where a unit stopped relative to the deadline checkpoints. Finishing
// walks a request's units in trial order and stops at the first one that
// is not kReady.
enum class UnitPhase {
  kNotStarted,         // deadline fired before the trial started
  kDeadlineHit,        // fired between the candidate and query walks
  kExpiredAtEntry,     // fired before quarantine (stage 2 entry)
  kExpiredPostSelect,  // fired after selection, before stage 3
  kReady,              // stages 1-2 complete; stage 3 pending
};

// One (request, trial) unit of evaluation. The unit's RNG is forked from
// its request's master seed in trial order (the master is used for nothing
// else), and every draw of the trial stays on it in this order: episode
// sample, candidate walks, query walks, selection draws, augmenter seed,
// prediction fallbacks.
struct EvalUnit {
  const EvalConfig* cfg = nullptr;
  const Stopwatch* clock = nullptr;  // the request's deadline clock
  int request = 0;  // the units of one request are contiguous
  int trial = 0;
  Rng rng{0};
  UnitPhase phase = UnitPhase::kNotStarted;
  int ways = 0;
  std::vector<int> candidate_labels, query_expected;
  Tensor candidate_emb, query_emb;
  bool candidates_degenerate = false;
  Tensor candidate_importance, query_importance;  // I_p, I_q (Eq. 5)
  Tensor prompt_emb;  // the refined prompt set S-hat
  std::vector<int> prompt_labels;
  // Stage-1/2 degradation; merged into the request's result only when the
  // unit is finished (a trial cut before its finish never counts).
  DegradationStats stage2_stats;
  // ms_per_query share of stages 1-2: the unit's query subgraphs' part of
  // the packed embed plus its part of the selection stage.
  double query_seconds = 0.0;

  bool PastDeadline() const {
    return cfg->deadline_us > 0 && clock->ElapsedMicros() >= cfg->deadline_us;
  }
};

// Stages 1-2 (Eqs. 1-8) over any number of units, packed: one disjoint-
// union encode over every unit's candidate and query subgraphs, one stacked
// selection-layer pass, one fused kNN sweep. Every packed kernel is row-
// or unit-independent, so each unit's values are bitwise those of the unit
// run alone. Fault-injector sites draw in unit order: candidate rows, query
// rows, then the prompt set.
void PrepareUnits(const GraphPrompterModel& model, const DatasetBundle& dataset,
                  const std::vector<EvalUnit*>& units) {
  const GraphPrompterConfig& mc = model.config();
  FaultInjector* const injector = ActiveFaultInjector();
  const size_t n = units.size();
  // A unit that stops at a checkpoint drops the later units of its request:
  // finishing never reaches them.
  std::vector<char> live(n, 1);
  auto stop = [&](size_t i, UnitPhase phase) {
    units[i]->phase = phase;
    live[i] = 0;
    for (size_t j = i + 1; j < n && units[j]->request == units[i]->request;
         ++j) {
      units[j]->phase = UnitPhase::kNotStarted;
      live[j] = 0;
    }
  };

  // ---- Stage 1a: episodes and subgraph walks, packed into one list.
  std::vector<Subgraph> subgraphs;
  std::vector<int> cand_begin(n, 0), query_begin(n, 0);
  const EpisodeSampler sampler(&dataset);
  for (size_t i = 0; i < n; ++i) {
    if (!live[i]) continue;
    EvalUnit& u = *units[i];
    if (u.PastDeadline()) {
      stop(i, UnitPhase::kNotStarted);
      continue;
    }
    GP_TRACE_SPAN("eval/prepare_trial");
    EpisodeConfig episode;
    episode.ways = u.cfg->ways;
    episode.candidates_per_class = u.cfg->candidates_per_class;
    episode.num_queries = u.cfg->num_queries;
    episode.queries_from_test = true;
    auto task_or = sampler.Sample(episode, &u.rng);
    CHECK_OK(task_or.status());
    u.ways = task_or->ways();
    cand_begin[i] = static_cast<int>(subgraphs.size());
    for (const auto& ex : task_or->candidates) {
      u.candidate_labels.push_back(ex.label);
      subgraphs.push_back(
          model.generator().SampleForItem(dataset, ex.item, &u.rng));
    }
    // The candidates were walked before this probe, so they stay in the
    // union (and an injector still draws on them) even when it fires.
    if (u.PastDeadline()) {
      stop(i, UnitPhase::kDeadlineHit);
      continue;
    }
    query_begin[i] = static_cast<int>(subgraphs.size());
    for (const auto& ex : task_or->queries) {
      u.query_expected.push_back(ex.label);
      subgraphs.push_back(
          model.generator().SampleForItem(dataset, ex.item, &u.rng));
    }
    u.phase = UnitPhase::kExpiredAtEntry;  // promoted to kReady below
  }

  // ---- Stage 1b: one packed encode. ms_per_query takes the query
  // subgraphs' share of it, split by subgraph count.
  Tensor all_emb;
  Stopwatch embed_timer;
  if (!subgraphs.empty()) {
    GP_TRACE_SPAN("eval/batch_embed");
    all_emb = model.generator().EmbedSubgraphs(dataset.graph, subgraphs);
  }
  const double per_subgraph_seconds =
      subgraphs.empty() ? 0.0 : embed_timer.ElapsedSeconds() / subgraphs.size();
  for (size_t i = 0; i < n; ++i) {
    EvalUnit& u = *units[i];
    const int nc = static_cast<int>(u.candidate_labels.size());
    const int nq = static_cast<int>(u.query_expected.size());
    if (nc > 0) {
      u.candidate_emb = SliceRows(all_emb, cand_begin[i], nc);
      if (injector != nullptr) {
        injector->CorruptRows(&u.candidate_emb.mutable_data(), nc,
                              u.candidate_emb.cols());
      }
    }
    if (nq > 0) {
      u.query_emb = SliceRows(all_emb, query_begin[i], nq);
      if (injector != nullptr) {
        injector->CorruptRows(&u.query_emb.mutable_data(), nq,
                              u.query_emb.cols());
      }
      u.query_seconds = per_subgraph_seconds * nq;
    }
  }

  // ---- Stage 2a: quarantine and sanitize, per unit.
  Stopwatch select_timer;
  std::vector<size_t> active;  // indices into `units`
  for (size_t i = 0; i < n; ++i) {
    if (!live[i]) continue;
    EvalUnit& u = *units[i];
    if (u.PastDeadline()) {
      stop(i, UnitPhase::kExpiredAtEntry);
      continue;
    }
    // Quarantine: a candidate with a non-finite embedding would poison
    // every similarity and importance it touches, so it is removed from
    // the candidate pool. If *every* row is damaged there is nothing left
    // to select from — sanitize to zeros and fall through to the random
    // rung of the ladder instead of returning an empty prompt set.
    if (const std::vector<int> bad = NonFiniteRows(u.candidate_emb);
        !bad.empty()) {
      if (bad.size() == static_cast<size_t>(u.candidate_emb.rows())) {
        ZeroRows(&u.candidate_emb, bad);
        u.candidates_degenerate = true;
      } else {
        std::vector<int> keep, kept_labels;
        size_t next_bad = 0;
        for (int r = 0; r < u.candidate_emb.rows(); ++r) {
          if (next_bad < bad.size() && bad[next_bad] == r) {
            ++next_bad;
            continue;
          }
          keep.push_back(r);
          kept_labels.push_back(u.candidate_labels[r]);
        }
        u.candidate_emb = GatherRows(u.candidate_emb, keep);
        u.candidate_labels = std::move(kept_labels);
      }
      u.stage2_stats.quarantined_prompts += bad.size();
      LOG(WARNING) << "request " << u.request << " trial " << u.trial
                   << ": quarantined " << bad.size()
                   << " candidate embedding rows with non-finite values";
    }
    // Unlike candidates, a damaged query cannot be dropped — it still needs
    // a prediction. Sanitize the row to zeros; the task graph then scores
    // it from label-prototype structure alone.
    if (const std::vector<int> bad = NonFiniteRows(u.query_emb);
        !bad.empty()) {
      ZeroRows(&u.query_emb, bad);
      u.stage2_stats.sanitized_queries += bad.size();
      LOG(WARNING) << "request " << u.request << " trial " << u.trial
                   << ": sanitized " << bad.size()
                   << " query embedding rows with non-finite values";
    }
    active.push_back(i);
  }

  // ---- Stage 2b: one stacked selection-layer pass (Eq. 5) over every
  // active unit's candidates and queries; the MLP is row-independent.
  if (mc.use_selection_layer && !active.empty()) {
    GP_TRACE_SPAN("eval/batch_importance");
    std::vector<Tensor> blocks;
    blocks.reserve(active.size() * 2);
    for (size_t i : active) {
      blocks.push_back(units[i]->candidate_emb);
      blocks.push_back(units[i]->query_emb);
    }
    const Tensor importance = model.selection().Importance(ConcatRows(blocks));
    int row = 0;
    for (size_t i : active) {
      EvalUnit& u = *units[i];
      const int nc = u.candidate_emb.rows();
      const int nq = u.query_emb.rows();
      u.candidate_importance = SliceRows(importance, row, nc);
      u.query_importance = SliceRows(importance, row + nc, nq);
      row += nc + nq;
    }
  }

  // ---- Stage 2c: the selection ladder kNN -> selection-layer-only ->
  // random (Eqs. 6-8). Health checks are read-only; on a clean run the
  // selector sees exactly the configured combination of terms. Random and
  // clustering draw from the unit's RNG inline; kNN-voting units share one
  // SelectPromptsBatch sweep.
  std::vector<std::vector<int>> selections(active.size());
  std::vector<KnnBatchUnit> knn_units;
  std::vector<int> knn_slot(active.size(), -1);
  for (size_t a = 0; a < active.size(); ++a) {
    EvalUnit& u = *units[active[a]];
    const bool imp_healthy = mc.use_selection_layer &&
                             u.candidate_importance.AllFinite() &&
                             u.query_importance.AllFinite();
    const bool sim_healthy = mc.use_knn && !u.candidates_degenerate;
    if (mc.random_prompt_selection ||
        (!mc.use_knn && !mc.use_selection_layer)) {
      // Prodigy behaviour: k random candidates per class.
      selections[a] =
          RandomSelection(u.candidate_labels, u.ways, u.cfg->shots, &u.rng);
      continue;
    }
    if (!sim_healthy && !imp_healthy) {
      // Bottom rung: neither the similarity nor the importance term can be
      // trusted; a random per-class pick still yields a usable prompt set.
      selections[a] =
          RandomSelection(u.candidate_labels, u.ways, u.cfg->shots, &u.rng);
      ++u.stage2_stats.selector_random;
      LOG(WARNING) << "request " << u.request << " trial " << u.trial
                   << ": prompt selector degraded to random selection";
      continue;
    }
    KnnConfig knn;
    knn.shots = u.cfg->shots;
    knn.metric = mc.metric;
    knn.use_similarity = mc.use_knn && sim_healthy;
    knn.use_importance = mc.use_selection_layer && imp_healthy;
    if (mc.use_selection_layer && !knn.use_importance) {
      ++u.stage2_stats.selector_knn_only;
      LOG(WARNING) << "request " << u.request << " trial " << u.trial
                   << ": non-finite importance, selector degraded to "
                      "kNN-only scoring";
    }
    if (mc.use_knn && !knn.use_similarity) {
      ++u.stage2_stats.selector_selection_only;
      LOG(WARNING) << "request " << u.request << " trial " << u.trial
                   << ": similarity unusable, selector degraded to "
                      "selection-layer-only scoring";
    }
    if (mc.selector == SelectorKind::kClustering) {
      selections[a] =
          SelectPromptsByClustering(u.candidate_emb, u.candidate_importance,
                                    u.candidate_labels, u.query_emb,
                                    u.query_importance, u.ways, knn, &u.rng)
              .selected;
    } else {
      knn_slot[a] = static_cast<int>(knn_units.size());
      knn_units.push_back({&u.candidate_emb, &u.candidate_importance,
                           &u.candidate_labels, &u.query_emb,
                           &u.query_importance, u.ways, knn});
    }
  }
  if (!knn_units.empty()) {
    const std::vector<KnnSelection> knn_results =
        SelectPromptsBatch(knn_units);
    for (size_t a = 0; a < active.size(); ++a) {
      if (knn_slot[a] >= 0) selections[a] = knn_results[knn_slot[a]].selected;
    }
  }

  // ---- Stage 2d: prompt-set hygiene after optional fault injection: drop
  // duplicate ids (a duplicated prompt would double-weight its class
  // prototype) and account for classes that lost every prompt.
  // SegmentMeanRows tolerates an empty class (prototype = label embedding
  // only), so a missing class degrades accuracy but cannot produce NaN.
  // ms_per_query takes each unit's share of the selection stage by query
  // count.
  const double select_seconds = select_timer.ElapsedSeconds();
  int64_t active_queries = 0;
  for (size_t i : active) active_queries += units[i]->query_emb.rows();
  for (size_t a = 0; a < active.size(); ++a) {
    const size_t i = active[a];
    if (!live[i]) continue;  // an earlier unit of the request stopped
    EvalUnit& u = *units[i];
    std::vector<int>& selected = selections[a];
    if (injector != nullptr) injector->MutatePromptSet(&selected);
    const int num_candidates = static_cast<int>(u.candidate_labels.size());
    std::vector<char> seen_prompt(num_candidates, 0);
    std::vector<int> unique;
    for (int p : selected) {
      if (p >= 0 && p < num_candidates && !seen_prompt[p]) {
        seen_prompt[p] = 1;
        unique.push_back(p);
      }
    }
    if (unique.size() != selected.size()) {
      u.stage2_stats.deduped_prompts += selected.size() - unique.size();
      selected = std::move(unique);
    }
    std::vector<char> class_covered(u.ways, 0);
    for (int p : selected) class_covered[u.candidate_labels[p]] = 1;
    for (int cls = 0; cls < u.ways; ++cls) {
      if (!class_covered[cls]) ++u.stage2_stats.missing_class_prompts;
    }
    // Refined prompt set S-hat. Note: the importance-weighted embeddings
    // G'_p = G_p * I_p are a *pretraining* input (Sec. IV-C: "S_I in
    // pretraining or S-hat' in testing"); at test time the selected
    // prompts enter the task graph unscaled, with I_p contributing only
    // to the selection score (Eq. 7).
    u.prompt_emb = GatherRows(u.candidate_emb, selected);
    for (int p : selected) u.prompt_labels.push_back(u.candidate_labels[p]);
    if (active_queries > 0) {
      u.query_seconds += select_seconds * u.query_emb.rows() / active_queries;
    }
    if (u.PastDeadline()) {
      stop(i, UnitPhase::kExpiredPostSelect);
    } else {
      u.phase = UnitPhase::kReady;
    }
  }
}

// Stage 3 (Eqs. 9-11) and prediction for one request: its units in trial
// order, each obtained from `unit_at` (which may wait for a pipelined
// prepare), streamed query batch by query batch through the task graph
// with optional cache augmentation (Algorithm 2 lines 9-14).
EvalResult FinishTrials(const GraphPrompterModel& model, const EvalConfig& cfg,
                        const Stopwatch& clock,
                        const BatchStage3Options& options,
                        const std::function<EvalUnit*(int)>& unit_at) {
  static Counter* trials_done = Telemetry().GetCounter("eval/trials");
  static Counter* queries_done = Telemetry().GetCounter("eval/queries");
  NoGradGuard no_grad;
  const GraphPrompterConfig& mc = model.config();
  const int dim = mc.embedding_dim;
  auto past_deadline = [&] {
    return cfg.deadline_us > 0 && clock.ElapsedMicros() >= cfg.deadline_us;
  };

  EvalResult result;
  double total_query_seconds = 0.0;
  int64_t total_queries = 0;
  for (int trial = 0; trial < cfg.trials; ++trial) {
    // Deadline checks at trial start, then wherever prepare stopped.
    if (past_deadline()) {
      result.deadline_expired = true;
      break;
    }
    GP_TRACE_SPAN("eval/trial");
    EvalUnit& u = *unit_at(trial);
    if (u.phase == UnitPhase::kNotStarted) {
      result.deadline_expired = true;
      break;
    }
    trials_done->Add(1);
    if (u.phase == UnitPhase::kDeadlineHit ||
        u.phase == UnitPhase::kExpiredAtEntry) {
      result.deadline_expired = true;
      break;
    }
    result.degradation.Merge(u.stage2_stats);
    total_query_seconds += u.query_seconds;
    if (u.phase == UnitPhase::kExpiredPostSelect) {
      result.deadline_expired = true;
      break;
    }
    const int ways = u.ways;

    PromptAugmenterConfig augmenter_config = mc.augmenter;
    if (!augmenter_config.random_pseudo_labels) {
      // Confidence gate relative to chance (1/ways): only predictions at
      // least 1.5x more confident than chance become pseudo-prompts.
      augmenter_config.min_confidence = std::max(
          augmenter_config.min_confidence, 1.5f / static_cast<float>(ways));
    }
    // A caller-provided augmenter carries its cache (and health counters)
    // across calls; otherwise a fresh per-trial instance is used. The seed
    // is drawn in both cases so later draws stay aligned.
    std::optional<PromptAugmenter> local_augmenter;
    const uint64_t augmenter_seed = u.rng.NextUint64();
    PromptAugmenter* augmenter = options.shared_augmenter;
    if (augmenter == nullptr) {
      local_augmenter.emplace(augmenter_config, augmenter_seed);
      augmenter = &*local_augmenter;
    }
    // Health counters accumulate for the augmenter's lifetime; with a
    // shared instance that spans calls, so account in deltas from here.
    const PromptAugmenter::Health base_health = augmenter->health();
    const int breaker_capacity = options.shared_augmenter != nullptr
                                     ? augmenter->config().cache_capacity
                                     : augmenter_config.cache_capacity;
    std::vector<int> predictions(u.query_expected.size(), -1);
    // Circuit breaker: once more entries have been evicted as poisoned than
    // the cache even holds, the pseudo-prompt source is clearly unhealthy —
    // skip the augmenter stage for the rest of the episode (Eq. 9 degrades
    // to S-hat' = S-hat).
    bool augmenter_enabled = mc.use_augmenter && !options.disable_augmenter;

    Stopwatch predict_timer;
    GP_TRACE_SPAN("eval/predict");
    const int num_queries = static_cast<int>(u.query_expected.size());
    int predicted_this_trial = 0;
    for (int start = 0; start < num_queries; start += cfg.query_batch) {
      if (past_deadline()) {
        result.deadline_expired = true;
        break;
      }
      const int count = std::min(cfg.query_batch, num_queries - start);
      Tensor batch_emb = SliceRows(u.query_emb, start, count);

      if (FaultInjector* inj = ActiveFaultInjector()) {
        if (inj->MaybeSlowBatch()) ++result.degradation.slow_batches;
        if (augmenter_enabled) {
          const auto entries = augmenter->cache().Entries();
          const int victim =
              inj->PickCacheEntryToPoison(static_cast<int>(entries.size()));
          if (victim >= 0) {
            CacheEntry* entry =
                augmenter->mutable_cache().MutableEntry(entries[victim].first);
            if (entry != nullptr && !entry->embedding.empty()) {
              entry->embedding[0] = std::numeric_limits<float>::quiet_NaN();
            }
          }
        }
      }

      Tensor step_prompts = u.prompt_emb;
      std::vector<int> step_labels = u.prompt_labels;
      if (augmenter_enabled) {
        augmenter->EvictPoisoned(dim, ways);
        if (augmenter->health().evicted_poisoned -
                base_health.evicted_poisoned >
            breaker_capacity) {
          augmenter_enabled = false;
          ++result.degradation.augmenter_stage_skips;
          LOG(WARNING) << "trial " << trial
                       << ": prompt cache repeatedly poisoned; augmenter "
                          "stage disabled for the rest of the episode";
        }
      }
      if (augmenter_enabled && augmenter->ValidateCache(dim, ways).ok()) {
        const auto cached = augmenter->GetCachedPrompts(dim);
        if (cached.embeddings.rows() > 0) {
          step_prompts = ConcatRows({step_prompts, cached.embeddings});
          step_labels.insert(step_labels.end(), cached.labels.begin(),
                             cached.labels.end());
        }
      }

      const TaskGraphOutput out =
          model.task_net().Forward(step_prompts, step_labels, batch_emb, ways);
      std::vector<int> batch_pred = ArgmaxRows(out.query_scores);
      std::vector<float> confidence = SoftmaxConfidence(out.query_scores);
      // Prediction fallback: a row of non-finite scores (damaged weights or
      // an injected fault that slipped past earlier rungs) gets a
      // deterministic random vote instead of an argmax over NaN, and its
      // confidence is floored so it can never enter the cache.
      for (int i = 0; i < count; ++i) {
        if (!out.query_scores.RowFinite(i)) {
          batch_pred[i] = static_cast<int>(u.rng.UniformInt(ways));
          confidence[i] = 0.0f;
          ++result.degradation.prediction_fallbacks;
        }
        predictions[start + i] = batch_pred[i];
      }
      if (augmenter_enabled) {
        augmenter->ObserveQueries(batch_emb, batch_pred, confidence,
                                  std::min(mc.cache_inserts_per_batch, ways));
      }
      predicted_this_trial += count;
    }
    total_query_seconds += predict_timer.ElapsedSeconds();
    total_queries += predicted_this_trial;
    result.degradation.augmenter_rejected_inserts +=
        augmenter->health().rejected_nonfinite -
        base_health.rejected_nonfinite;
    result.degradation.augmenter_evicted_poisoned +=
        augmenter->health().evicted_poisoned - base_health.evicted_poisoned;

    // A deadline mid-trial leaves unpredicted queries; a partial trial's
    // accuracy would be biased, so it is dropped rather than averaged.
    if (result.deadline_expired) break;
    result.trial_accuracy_percent.push_back(
        100.0 * Accuracy(predictions, u.query_expected));

    if (cfg.keep_embeddings && trial == cfg.trials - 1) {
      result.embeddings = ConcatRows({u.candidate_emb, u.query_emb});
      result.embedding_labels = u.candidate_labels;
      result.embedding_labels.insert(result.embedding_labels.end(),
                                     u.query_expected.begin(),
                                     u.query_expected.end());
    }
  }

  result.accuracy_percent = ComputeMeanStd(result.trial_accuracy_percent);
  result.ms_per_query =
      total_queries > 0 ? 1e3 * total_query_seconds / total_queries : 0.0;
  result.completed_queries = total_queries;
  queries_done->Add(total_queries);
  result.degradation.PublishToTelemetry();
  return result;
}

}  // namespace

EvalResult EvaluateInContext(const GraphPrompterModel& model,
                             const DatasetBundle& dataset,
                             const EvalConfig& eval_config) {
  // Bound the buffer pool to this evaluation: trial-to-trial tensor churn
  // recycles through the pool, and everything is drained (and the alloc/
  // gauges published) when the outermost scope exits.
  PoolScope pool_scope;
  CHECK_EQ(model.config().feature_dim, dataset.graph.feature_dim());
  Stopwatch clock;
  Rng rng(eval_config.seed);

  // Pipelined schedule (DESIGN.md §13): the prepare of trial t+1 (stages
  // 1-2) overlaps the finish of trial t (stage 3). With pipelining off the
  // executor runs deferred-inline, which is the serial schedule
  // instruction for instruction; with it on, one background worker
  // prepares while this thread finishes. Trial RNGs fork from the master
  // at submission in trial order. The executor's destructor cancels
  // unstarted prepares and joins a running one before `units` goes away.
  FaultInjector* const entry_injector = ActiveFaultInjector();
  std::vector<EvalUnit> units(std::max(0, eval_config.trials));
  std::vector<PipelineExecutor::TaskId> prep_ids(units.size(), -1);
  PipelineExecutor::Options exec_options;
  exec_options.workers = PipelineActive() ? 1 : 0;
  exec_options.max_in_flight = 2;
  PipelineExecutor exec(exec_options);
  auto submit_prepare = [&](int trial) {
    EvalUnit* unit = &units[trial];
    unit->cfg = &eval_config;
    unit->clock = &clock;
    unit->trial = trial;
    unit->rng = rng.Fork();
    prep_ids[trial] = exec.Submit([&, unit] {
      // Worker threads inherit no thread-locals from the submitter:
      // re-establish inference mode and the caller's fault-injector scope
      // (the serving daemon installs a per-tenant injector on its thread).
      NoGradGuard prepare_no_grad;
      ScopedThreadFaultInjector scoped_injector(entry_injector);
      PrepareUnits(model, dataset, {unit});
    });
  };
  if (!units.empty()) submit_prepare(0);

  BatchStage3Options options;
  options.disable_augmenter = eval_config.disable_augmenter;
  options.shared_augmenter = eval_config.shared_augmenter;
  return FinishTrials(model, eval_config, clock, options, [&](int trial) {
    if (trial + 1 < eval_config.trials) submit_prepare(trial + 1);
    exec.Wait(prep_ids[trial]);
    return &units[trial];
  });
}

struct BatchEvaluation::RequestState {
  Stopwatch clock;  // the request's deadline clock, started at construction
  std::vector<EvalUnit> units;
  bool finished = false;
};

BatchEvaluation::BatchEvaluation(const GraphPrompterModel& model,
                                 const DatasetBundle& dataset,
                                 std::vector<EvalConfig> configs)
    : model_(model), dataset_(dataset), configs_(std::move(configs)) {
  CHECK_EQ(model_.config().feature_dim, dataset_.graph.feature_dim());
  requests_.reserve(configs_.size());
  for (size_t i = 0; i < configs_.size(); ++i) {
    requests_.push_back(std::make_unique<RequestState>());
  }
}

BatchEvaluation::~BatchEvaluation() = default;

void BatchEvaluation::Prepare() {
  CHECK(!prepared_);
  prepared_ = true;
  // A live fault injector draws in each trial's prepare-then-finish order;
  // FinishRequest then evaluates each request on its own.
  if (ActiveFaultInjector() != nullptr) {
    per_request_ = true;
    return;
  }
  if (configs_.empty()) return;
  GP_TRACE_SPAN("eval/batch_prepare");
  PoolScope pool_scope;
  NoGradGuard no_grad;
  std::vector<EvalUnit*> units;
  for (size_t r = 0; r < configs_.size(); ++r) {
    RequestState& req = *requests_[r];
    Rng master(configs_[r].seed);
    req.units.resize(std::max(0, configs_[r].trials));
    for (size_t t = 0; t < req.units.size(); ++t) {
      EvalUnit& unit = req.units[t];
      unit.cfg = &configs_[r];
      unit.clock = &req.clock;
      unit.request = static_cast<int>(r);
      unit.trial = static_cast<int>(t);
      unit.rng = master.Fork();
      units.push_back(&unit);
    }
  }
  PrepareUnits(model_, dataset_, units);
}

EvalResult BatchEvaluation::FinishRequest(int i,
                                          const BatchStage3Options& options) {
  CHECK(prepared_);
  CHECK_GE(i, 0);
  CHECK_LT(i, size());
  RequestState& req = *requests_[i];
  CHECK(!req.finished);
  req.finished = true;
  BatchStage3Options stage3 = options;
  stage3.disable_augmenter |= configs_[i].disable_augmenter;
  if (per_request_) {
    EvalConfig cfg = configs_[i];
    cfg.disable_augmenter = stage3.disable_augmenter;
    cfg.shared_augmenter = stage3.shared_augmenter;
    return EvaluateInContext(model_, dataset_, cfg);
  }
  GP_TRACE_SPAN("eval/batch_finish");
  PoolScope pool_scope;
  return FinishTrials(model_, configs_[i], req.clock, stage3,
                      [&](int trial) { return &req.units[trial]; });
}

std::vector<EvalResult> EvaluateInContextBatch(
    const GraphPrompterModel& model, const DatasetBundle& dataset,
    const std::vector<EvalConfig>& configs) {
  BatchEvaluation batch(model, dataset, configs);
  batch.Prepare();
  std::vector<EvalResult> results;
  results.reserve(configs.size());
  for (int i = 0; i < batch.size(); ++i) {
    BatchStage3Options options;
    options.disable_augmenter = configs[i].disable_augmenter;
    options.shared_augmenter = configs[i].shared_augmenter;
    results.push_back(batch.FinishRequest(i, options));
  }
  return results;
}

}  // namespace gp
