// The evaluation core: cross-request batched evaluation, and the home of
// EvaluateInContext (declared in core/graph_prompter.h).
//
// The unit of evaluation is one (request, trial) pair. One prepare body
// runs stages 1-2 packed over any number of units: the episode sample and
// subgraph walks (each unit on its own forked RNG), one disjoint-union
// encode over every unit's candidate and query subgraphs, quarantine and
// sanitize, one stacked selection-layer importance pass, the selection
// ladder with one fused kNN sweep (SelectPromptsBatch), and prompt-set
// hygiene. One finish body runs stage 3 (the augmenter step loop and the
// task-graph prediction) for one request's units in trial order.
//
//   EvaluateInContext  prepares one trial at a time on the stage pipeline,
//                      one trial ahead (DESIGN.md §13), and finishes trials
//                      in order.
//   BatchEvaluation    Prepare() prepares every unit of every request at
//                      once; FinishRequest(i) finishes request i, so the
//                      serving daemon can interleave per-tenant state
//                      (circuit breaker, shared augmenter cache) between
//                      requests exactly as the one-at-a-time path does.
//
// Determinism contract (pinned by tests/serve_batch_test.cc and
// tests/golden_eval_test.cc): every request's EvalResult is bitwise
// identical to a standalone EvaluateInContext with the same EvalConfig —
// accuracy bit patterns, trial accuracies, degradation counters, deadline
// flags, predictions. Every packed kernel is row- or unit-independent, and
// each trial's draws stay on its own RNG stream in one order: episode
// sample, candidate walks, query walks, selection draws, the unconditional
// augmenter seed, prediction fallbacks. Wall-clock fields (ms_per_query)
// and deadline *cut points* under an actively-expiring deadline are
// timing and excluded.
//
// Fault injection is order-dependent (a shared injector draws once per
// probe site, so packing trials would reshuffle its stream): when a fault
// injector is active at Prepare() time, FinishRequest evaluates its request
// with EvaluateInContext, which keeps each trial's prepare-then-finish
// order of draws. The serving batcher never batches fault-carrying
// requests, so the packed path stays hot in production.

#ifndef GRAPHPROMPTER_CORE_BATCH_EVAL_H_
#define GRAPHPROMPTER_CORE_BATCH_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/graph_prompter.h"

namespace gp {

// Per-request stage-3 options resolved at FinishRequest time. The serving
// daemon computes them under the tenant lock right before consuming a
// request, because they depend on the breaker outcome of the previous
// request (BeginRequestSafeMode).
struct BatchStage3Options {
  bool disable_augmenter = false;           // tenant safe mode
  PromptAugmenter* shared_augmenter = nullptr;  // persistent tenant cache
};

class BatchEvaluation {
 public:
  // References must outlive the object. One EvalConfig per request.
  BatchEvaluation(const GraphPrompterModel& model,
                  const DatasetBundle& dataset,
                  std::vector<EvalConfig> configs);
  ~BatchEvaluation();

  BatchEvaluation(const BatchEvaluation&) = delete;
  BatchEvaluation& operator=(const BatchEvaluation&) = delete;

  int size() const { return static_cast<int>(configs_.size()); }

  // Runs stages 1-2 for every request (packed). Call exactly once; may run
  // on a different thread than FinishRequest (the serving daemon overlaps
  // Prepare of batch i+1 with FinishRequest of batch i via the pipeline
  // executor). Thread-locals (NoGradGuard, pool scope) are established
  // internally.
  void Prepare();

  // Finishes request `i`: stage 3, prediction, metrics assembly. Call
  // exactly once per request after Prepare(); calls must be externally
  // serialized (the daemon's batch worker is single-threaded per batch)
  // and must run under the same fault-injector scope as Prepare().
  EvalResult FinishRequest(int i, const BatchStage3Options& options);

 private:
  struct RequestState;

  const GraphPrompterModel& model_;
  const DatasetBundle& dataset_;
  std::vector<EvalConfig> configs_;
  std::vector<std::unique_ptr<RequestState>> requests_;
  bool prepared_ = false;
  bool per_request_ = false;  // an injector was active at Prepare()
};

// Convenience wrapper: Prepare + FinishRequest for every config in order,
// with each request's stage-3 options taken from its own EvalConfig.
// Equivalent to calling EvaluateInContext once per config.
std::vector<EvalResult> EvaluateInContextBatch(
    const GraphPrompterModel& model, const DatasetBundle& dataset,
    const std::vector<EvalConfig>& configs);

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_BATCH_EVAL_H_
