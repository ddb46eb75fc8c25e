#include "core/knn_retrieval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/rng.h"

namespace gp {
namespace {

// Candidates: 2 classes x 3 candidates in 2-D. Class 0 near (1,0), class 1
// near (0,1); one candidate per class is an outlier.
struct Fixture {
  Tensor prompts = Tensor::FromData(6, 2,
                                    {
                                        1.0f, 0.0f,    // 0: class 0, good
                                        0.9f, 0.1f,    // 1: class 0, good
                                        -1.0f, 0.0f,   // 2: class 0, outlier
                                        0.0f, 1.0f,    // 3: class 1, good
                                        0.1f, 0.9f,    // 4: class 1, good
                                        0.0f, -1.0f,   // 5: class 1, outlier
                                    });
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  Tensor queries = Tensor::FromData(2, 2, {1.0f, 0.1f, 0.1f, 1.0f});
};

TEST(KnnRetrievalTest, SelectsKPerClass) {
  Fixture f;
  KnnConfig config;
  config.shots = 2;
  const auto sel = SelectPrompts(f.prompts, Tensor(), f.labels, f.queries,
                                 Tensor(), 2, config);
  ASSERT_EQ(sel.selected.size(), 4u);
  int class0 = 0, class1 = 0;
  for (int p : sel.selected) {
    if (f.labels[p] == 0) ++class0;
    if (f.labels[p] == 1) ++class1;
  }
  EXPECT_EQ(class0, 2);
  EXPECT_EQ(class1, 2);
}

TEST(KnnRetrievalTest, OutliersAreFilteredBySimilarity) {
  Fixture f;
  KnnConfig config;
  config.shots = 2;
  const auto sel = SelectPrompts(f.prompts, Tensor(), f.labels, f.queries,
                                 Tensor(), 2, config);
  for (int p : sel.selected) {
    EXPECT_NE(p, 2);  // class-0 outlier rejected
    EXPECT_NE(p, 5);  // class-1 outlier rejected
  }
}

TEST(KnnRetrievalTest, VotesAreNonNegativeForTopPrompts) {
  Fixture f;
  KnnConfig config;
  config.shots = 1;
  const auto sel = SelectPrompts(f.prompts, Tensor(), f.labels, f.queries,
                                 Tensor(), 2, config);
  for (int p : sel.selected) {
    EXPECT_GT(sel.votes[p], 0.0);
  }
}

TEST(KnnRetrievalTest, ImportanceTermBreaksTies) {
  // Two identical candidates per class; importance decides.
  Tensor prompts = Tensor::FromData(4, 2, {1, 0, 1, 0, 0, 1, 0, 1});
  std::vector<int> labels = {0, 0, 1, 1};
  Tensor queries = Tensor::FromData(1, 2, {1.0f, 1.0f});
  Tensor prompt_importance = Tensor::FromData(4, 1, {0.1f, 0.9f, 0.9f, 0.1f});
  Tensor query_importance = Tensor::FromData(1, 1, {1.0f});
  KnnConfig config;
  config.shots = 1;
  const auto sel = SelectPrompts(prompts, prompt_importance, labels, queries,
                                 query_importance, 2, config);
  ASSERT_EQ(sel.selected.size(), 2u);
  EXPECT_EQ(sel.selected[0], 1);  // higher-importance class-0 candidate
  EXPECT_EQ(sel.selected[1], 2);  // higher-importance class-1 candidate
}

TEST(KnnRetrievalTest, SimilarityOnlyWhenImportanceDisabled) {
  Fixture f;
  KnnConfig config;
  config.shots = 1;
  config.use_importance = false;
  // Importance tensors deliberately undefined.
  const auto sel = SelectPrompts(f.prompts, Tensor(), f.labels, f.queries,
                                 Tensor(), 2, config);
  EXPECT_EQ(sel.selected.size(), 2u);
}

TEST(KnnRetrievalTest, BothTermsDisabledFallsBackDeterministically) {
  Fixture f;
  KnnConfig config;
  config.shots = 2;
  config.use_similarity = false;
  config.use_importance = false;
  const auto sel = SelectPrompts(f.prompts, Tensor(), f.labels, f.queries,
                                 Tensor(), 2, config);
  // Stable order: first candidates of each class.
  EXPECT_EQ(sel.selected, (std::vector<int>{0, 1, 3, 4}));
}

TEST(KnnRetrievalTest, FewerCandidatesThanShots) {
  Tensor prompts = Tensor::FromData(2, 2, {1, 0, 0, 1});
  std::vector<int> labels = {0, 1};
  Tensor queries = Tensor::FromData(1, 2, {1.0f, 0.0f});
  KnnConfig config;
  config.shots = 5;
  const auto sel = SelectPrompts(prompts, Tensor(), labels, queries,
                                 Tensor(), 2, config);
  EXPECT_EQ(sel.selected.size(), 2u);  // everything available
}

// One problem of the fused sweep: its own candidates, queries, importance
// and config.
struct BatchProblem {
  Tensor prompts, prompt_importance, queries, query_importance;
  std::vector<int> labels;
  int ways = 0;
  KnnConfig config;
};

BatchProblem MakeProblem(int num_prompts, int num_queries, int dim, int ways,
                         DistanceMetric metric, bool use_similarity,
                         Rng* rng) {
  BatchProblem b;
  b.prompts = Tensor::Randn(num_prompts, dim, rng);
  b.prompt_importance = Tensor::Randn(num_prompts, 1, rng);
  b.queries = Tensor::Randn(num_queries, dim, rng);
  b.query_importance = Tensor::Randn(num_queries, 1, rng);
  for (int p = 0; p < num_prompts; ++p) b.labels.push_back(p % ways);
  b.ways = ways;
  b.config.shots = 3;
  b.config.metric = metric;
  b.config.use_similarity = use_similarity;
  b.config.index.mode = IndexMode::kExact;  // the fused pass, not IVF
  return b;
}

// Eq. 7-8 with the importance term alone, in plain arithmetic: every query
// votes I_p * I_q for its top-k candidates, merged in query order.
std::vector<double> ImportanceOnlyVotes(const BatchProblem& b) {
  const int num_prompts = b.prompts.rows();
  const int k = std::min(b.config.shots, num_prompts);
  std::vector<double> votes(num_prompts, 0.0);
  for (int q = 0; q < b.queries.rows(); ++q) {
    std::vector<std::pair<double, int>> scored;
    for (int p = 0; p < num_prompts; ++p) {
      scored.push_back({static_cast<double>(b.prompt_importance.at(p, 0)) *
                            b.query_importance.at(q, 0),
                        p});
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& x, const auto& y) { return x.first > y.first; });
    for (int i = 0; i < k; ++i) votes[scored[i].second] += scored[i].first;
  }
  return votes;
}

// The fused multi-unit sweep must equal a standalone SelectPrompts per
// unit, bit for bit, across metrics, pool sizes, ways, an importance-only
// unit and an empty pool; the importance-only unit is also checked
// against Eq. 7-8 computed by hand.
TEST(KnnRetrievalTest, BatchMatchesStandaloneBitwise) {
  Rng rng(2024);
  std::vector<BatchProblem> problems;
  problems.push_back(
      MakeProblem(20, 7, 12, 4, DistanceMetric::kCosine, true, &rng));
  problems.push_back(
      MakeProblem(15, 3, 12, 3, DistanceMetric::kEuclidean, true, &rng));
  problems.push_back(
      MakeProblem(24, 10, 8, 6, DistanceMetric::kManhattan, true, &rng));
  problems.push_back(
      MakeProblem(9, 5, 12, 3, DistanceMetric::kCosine, false, &rng));
  problems.push_back(
      MakeProblem(0, 4, 12, 2, DistanceMetric::kCosine, true, &rng));

  std::vector<KnnBatchUnit> units;
  for (const BatchProblem& b : problems) {
    units.push_back({&b.prompts, &b.prompt_importance, &b.labels, &b.queries,
                     &b.query_importance, b.ways, b.config});
  }
  const std::vector<KnnSelection> batched = SelectPromptsBatch(units);
  ASSERT_EQ(batched.size(), problems.size());
  for (size_t u = 0; u < problems.size(); ++u) {
    const BatchProblem& b = problems[u];
    const KnnSelection alone =
        SelectPrompts(b.prompts, b.prompt_importance, b.labels, b.queries,
                      b.query_importance, b.ways, b.config);
    EXPECT_EQ(batched[u].selected, alone.selected) << "unit " << u;
    EXPECT_EQ(batched[u].hit_counts, alone.hit_counts) << "unit " << u;
    ASSERT_EQ(batched[u].votes.size(), alone.votes.size()) << "unit " << u;
    EXPECT_EQ(std::memcmp(batched[u].votes.data(), alone.votes.data(),
                          alone.votes.size() * sizeof(double)),
              0)
        << "unit " << u << ": vote bits differ";
  }
  EXPECT_TRUE(batched[4].selected.empty());

  const std::vector<double> want = ImportanceOnlyVotes(problems[3]);
  ASSERT_EQ(batched[3].votes.size(), want.size());
  EXPECT_EQ(std::memcmp(batched[3].votes.data(), want.data(),
                        want.size() * sizeof(double)),
            0)
      << "importance-only votes differ from Eq. 7-8";
}

TEST(KnnRetrievalTest, MetricNames) {
  EXPECT_STREQ(DistanceMetricName(DistanceMetric::kCosine), "cosine");
  EXPECT_STREQ(DistanceMetricName(DistanceMetric::kEuclidean), "euclidean");
  EXPECT_STREQ(DistanceMetricName(DistanceMetric::kManhattan), "manhattan");
}

// All three metrics must agree on the clear-cut outlier fixture (the paper
// notes the metric is substitutable).
class KnnMetricTest : public ::testing::TestWithParam<DistanceMetric> {};

TEST_P(KnnMetricTest, OutlierFilteredUnderAnyMetric) {
  Fixture f;
  KnnConfig config;
  config.shots = 2;
  config.metric = GetParam();
  const auto sel = SelectPrompts(f.prompts, Tensor(), f.labels, f.queries,
                                 Tensor(), 2, config);
  for (int p : sel.selected) {
    EXPECT_NE(p, 2);
    EXPECT_NE(p, 5);
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, KnnMetricTest,
                         ::testing::Values(DistanceMetric::kCosine,
                                           DistanceMetric::kEuclidean,
                                           DistanceMetric::kManhattan));

TEST(EmbeddingSimilarityTest, CosineOfIdenticalRows) {
  Tensor a = Tensor::FromData(1, 3, {1, 2, 3});
  EXPECT_NEAR(EmbeddingSimilarity(a, 0, a, 0, DistanceMetric::kCosine), 1.0f,
              1e-5f);
  EXPECT_NEAR(EmbeddingSimilarity(a, 0, a, 0, DistanceMetric::kEuclidean),
              0.0f, 1e-5f);
}

}  // namespace
}  // namespace gp
