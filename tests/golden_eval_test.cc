// Golden regression tests for the retrieval/scoring pipeline.
//
// Pins (a) the quickstart-style in-context trial accuracies and (b) the
// prompt selector's top-k selections, vote totals, and hit counts for
// fixed seeds into tests/golden/. Values are rendered with %.17g, so any
// change to retrieval or scoring that shifts predictions by even one ULP
// fails loudly. The golden files were generated from the pre-index
// brute-force pipeline; the default (auto) index configuration and
// --index=exact must keep matching them bitwise.
//
// Regenerate (after an *intentional* numeric change, reviewed in the PR):
//   scripts/update_golden.sh

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/batch_eval.h"
#include "core/graph_prompter.h"
#include "core/knn_retrieval.h"
#ifndef GP_GOLDEN_SEED_BOOTSTRAP
#include "core/prompt_index.h"
#endif
#include "data/datasets.h"
#include "util/parallel.h"
#include "util/pipeline.h"
#include "util/rng.h"

#ifndef GP_GOLDEN_DIR
#error "GP_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace gp {
namespace {

std::string Fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---- renderers: each produces the exact text pinned in tests/golden/.

// Quickstart-shaped evaluation: deterministically initialised model (no
// pretraining, so the test stays fast), synthetic downstream graph, three
// trials. Pins per-trial accuracy plus the mean/std. With `packed`, the
// same request runs as the middle one of a three-request packed batch
// whose neighbors use other ways, seeds and trial counts.
std::string RenderEvalGolden(bool packed = false) {
  DatasetBundle downstream = MakeArxivSim(0.4, 21);
  GraphPrompterConfig config =
      FullGraphPrompterConfig(downstream.graph.feature_dim(), 7);
  GraphPrompterModel model(config);

  EvalConfig eval;
  eval.ways = 5;
  eval.shots = 3;
  eval.candidates_per_class = 10;
  eval.num_queries = 40;
  eval.trials = 3;
  eval.seed = 99;
  EvalResult result;
  if (packed) {
    EvalConfig before = eval;
    before.ways = 3;
    before.seed = 5;
    before.trials = 2;
    EvalConfig after = eval;
    after.ways = 4;
    after.seed = 1234;
    after.trials = 1;
    result = EvaluateInContextBatch(model, downstream,
                                    {before, eval, after})[1];
  } else {
    result = EvaluateInContext(model, downstream, eval);
  }

  std::ostringstream out;
  out << "dataset " << downstream.name << "\n";
  for (size_t t = 0; t < result.trial_accuracy_percent.size(); ++t) {
    out << "trial " << t << " accuracy_percent "
        << Fmt(result.trial_accuracy_percent[t]) << "\n";
  }
  out << "mean " << Fmt(result.accuracy_percent.mean) << "\n";
  out << "std " << Fmt(result.accuracy_percent.std) << "\n";
  return out.str();
}

// Raw selector outputs on fixed random embeddings, one block per distance
// metric: selected candidate ids, per-candidate vote totals, hit counts.
std::string RenderSelectionGolden() {
  Rng rng(123);
  const int num_prompts = 48, num_queries = 20, dim = 12, classes = 4;
  Tensor prompts = Tensor::Randn(num_prompts, dim, &rng);
  Tensor prompt_importance = Tensor::Randn(num_prompts, 1, &rng);
  Tensor queries = Tensor::Randn(num_queries, dim, &rng);
  Tensor query_importance = Tensor::Randn(num_queries, 1, &rng);
  std::vector<int> labels(num_prompts);
  for (int p = 0; p < num_prompts; ++p) labels[p] = p % classes;

  std::ostringstream out;
  for (DistanceMetric metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean,
        DistanceMetric::kManhattan}) {
    KnnConfig config;
    config.shots = 3;
    config.metric = metric;
    const KnnSelection sel =
        SelectPrompts(prompts, prompt_importance, labels, queries,
                      query_importance, classes, config);
    out << "metric " << DistanceMetricName(metric) << "\n";
    out << "selected";
    for (int p : sel.selected) out << " " << p;
    out << "\n";
    for (int p = 0; p < num_prompts; ++p) {
      if (sel.hit_counts[p] == 0) continue;
      out << "candidate " << p << " votes " << Fmt(sel.votes[p]) << " hits "
          << sel.hit_counts[p] << "\n";
    }
  }
  return out.str();
}

// ---- harness: compare against (or regenerate) tests/golden/<name>.

bool UpdateRequested() {
  const char* env = std::getenv("GP_UPDATE_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

void CheckGolden(const std::string& name, const std::string& rendered) {
  const std::string path = std::string(GP_GOLDEN_DIR) + "/" + name;
  if (UpdateRequested()) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    std::printf("updated %s\n", path.c_str());
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run scripts/update_golden.sh to generate it";
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), rendered)
      << "pipeline output diverged from " << path
      << ". If the change is intentional, regenerate with "
         "scripts/update_golden.sh and review the diff.";
}

TEST(GoldenEvalTest, QuickstartTrialAccuracies) {
  CheckGolden("quickstart_eval.golden", RenderEvalGolden());
}

TEST(GoldenEvalTest, SelectorTopKPerMetric) {
  CheckGolden("selector_topk.golden", RenderSelectionGolden());
}

// The packed path (one union encode, stacked importance and one fused kNN
// sweep across requests) must render the same golden file byte for byte.
TEST(GoldenEvalTest, PackedBatchMiddleRequestMatchesGolden) {
  CheckGolden("quickstart_eval.golden", RenderEvalGolden(/*packed=*/true));
}

// The pipelined executor path (stage A of trial i+1 overlapped with stage
// B of trial i) must reproduce the pinned serial goldens bitwise — the
// determinism contract of DESIGN.md §13, checked here against the same
// files the serial run pins, at several ParallelFor widths.
TEST(GoldenEvalTest, PipelinedExecutorMatchesGolden) {
  const PipelineMode saved_mode = GetPipelineMode();
  const int saved_threads = NumThreads();
  SetPipelineMode(PipelineMode::kOn);
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    CheckGolden("quickstart_eval.golden", RenderEvalGolden());
  }
  SetNumThreads(saved_threads);
  SetPipelineMode(saved_mode);
}

// The exact index mode must be a byte-for-byte no-op relative to the
// pinned brute-force pipeline, and the auto default must resolve to exact
// at these candidate-pool sizes.
#ifndef GP_GOLDEN_SEED_BOOTSTRAP
TEST(GoldenEvalTest, ExactIndexModeMatchesGolden) {
  const PromptIndexOptions saved = GlobalIndexOptions();
  PromptIndexOptions exact = saved;
  exact.mode = IndexMode::kExact;
  SetGlobalIndexOptions(exact);
  CheckGolden("quickstart_eval.golden", RenderEvalGolden());
  CheckGolden("selector_topk.golden", RenderSelectionGolden());
  SetGlobalIndexOptions(saved);
}
#endif  // GP_GOLDEN_SEED_BOOTSTRAP

}  // namespace
}  // namespace gp
