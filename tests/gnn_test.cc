#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "gnn/encoder.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace gp {
namespace {

// A 3-node path 0-1-2 (directed both ways) with 2-dim features.
struct TinyGraph {
  Tensor x = Tensor::FromData(3, 2, {1, 0, 0, 1, 1, 1});
  std::vector<int> src = {0, 1, 1, 2};
  std::vector<int> dst = {1, 0, 2, 1};
};

TEST(SageConvTest, OutputShape) {
  Rng rng(1);
  SageConv conv(2, 4, &rng);
  TinyGraph g;
  Tensor h = conv.Forward(g.x, g.src, g.dst, Tensor());
  EXPECT_EQ(h.rows(), 3);
  EXPECT_EQ(h.cols(), 4);
}

TEST(SageConvTest, NoEdgesUsesSelfOnly) {
  Rng rng(2);
  SageConv conv(2, 3, &rng);
  Tensor x = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor h = conv.Forward(x, {}, {}, Tensor());
  EXPECT_EQ(h.rows(), 2);
}

TEST(SageConvTest, ZeroEdgeWeightsMatchNoNeighborsUpToEpsilon) {
  Rng rng(3);
  SageConv conv(2, 3, &rng);
  TinyGraph g;
  Tensor zero_w = Tensor::Zeros(4, 1);
  Tensor with_zero = conv.Forward(g.x, g.src, g.dst, zero_w);
  Tensor no_edges = conv.Forward(g.x, {}, {}, Tensor());
  for (int64_t i = 0; i < with_zero.size(); ++i) {
    EXPECT_NEAR(with_zero.data()[i], no_edges.data()[i], 1e-3f);
  }
}

TEST(SageConvTest, EdgeWeightChangesOutput) {
  Rng rng(4);
  SageConv conv(2, 3, &rng);
  TinyGraph g;
  Tensor w1 = Tensor::Full(4, 1, 1.0f);
  Tensor w2 = Tensor::FromData(4, 1, {1.0f, 0.1f, 0.9f, 0.2f});
  Tensor h1 = conv.Forward(g.x, g.src, g.dst, w1);
  Tensor h2 = conv.Forward(g.x, g.src, g.dst, w2);
  float diff = 0;
  for (int64_t i = 0; i < h1.size(); ++i) {
    diff += std::abs(h1.data()[i] - h2.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(SageConvTest, GradientFlowsToEdgeWeights) {
  Rng rng(5);
  SageConv conv(2, 3, &rng);
  TinyGraph g;
  Tensor w = Tensor::Full(4, 1, 0.5f, /*requires_grad=*/true);
  Backward(SumAll(conv.Forward(g.x, g.src, g.dst, w)));
  ASSERT_FALSE(w.grad().empty());
  float total = 0;
  for (float v : w.grad()) total += std::abs(v);
  EXPECT_GT(total, 0.0f);
}

TEST(SageConvTest, PermutationEquivariant) {
  // Relabeling nodes permutes outputs identically.
  Rng rng(6);
  SageConv conv(2, 3, &rng);
  TinyGraph g;
  Tensor h = conv.Forward(g.x, g.src, g.dst, Tensor());
  // Permutation: 0->2, 1->0, 2->1.
  std::vector<int> perm = {2, 0, 1};
  Tensor xp = Tensor::Zeros(3, 2);
  for (int i = 0; i < 3; ++i) {
    for (int c = 0; c < 2; ++c) xp.at(perm[i], c) = g.x.at(i, c);
  }
  std::vector<int> src_p, dst_p;
  for (size_t e = 0; e < g.src.size(); ++e) {
    src_p.push_back(perm[g.src[e]]);
    dst_p.push_back(perm[g.dst[e]]);
  }
  Tensor hp = conv.Forward(xp, src_p, dst_p, Tensor());
  for (int i = 0; i < 3; ++i) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(h.at(i, c), hp.at(perm[i], c), 1e-4f);
    }
  }
}

TEST(GcnConvTest, OutputShapeAndGrad) {
  Rng rng(7);
  GcnConv conv(2, 4, &rng);
  TinyGraph g;
  Tensor w = Tensor::Full(4, 1, 1.0f, true);
  Tensor h = conv.Forward(g.x, g.src, g.dst, w);
  EXPECT_EQ(h.rows(), 3);
  EXPECT_EQ(h.cols(), 4);
  Backward(SumAll(h));
  EXPECT_FALSE(w.grad().empty());
}

TEST(GcnConvTest, IsolatedGraphStillWorks) {
  Rng rng(8);
  GcnConv conv(2, 2, &rng);
  Tensor x = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor h = conv.Forward(x, {}, {}, Tensor());
  EXPECT_EQ(h.rows(), 2);
}

TEST(GatConvTest, OutputShape) {
  Rng rng(9);
  GatConv conv(2, 4, &rng);
  TinyGraph g;
  Tensor h = conv.Forward(g.x, g.src, g.dst, Tensor());
  EXPECT_EQ(h.rows(), 3);
  EXPECT_EQ(h.cols(), 4);
}

TEST(GatConvTest, AttentionIsNormalizedPerDestination) {
  // With identical neighbor features, GAT attention halves each message;
  // compare against a single-neighbor graph to detect normalisation.
  Rng rng(10);
  GatConv conv(2, 2, &rng);
  Tensor x = Tensor::FromData(3, 2, {1, 1, 1, 1, 5, 5});
  // Node 2 receives from 0 and 1 (identical features).
  Tensor h_two = conv.Forward(x, {0, 1}, {2, 2}, Tensor());
  Tensor h_one = conv.Forward(x, {0}, {2}, Tensor());
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(h_two.at(2, c), h_one.at(2, c), 1e-4f);
  }
}

TEST(GatConvTest, GradientsFlowToAttentionParams) {
  Rng rng(11);
  GatConv conv(2, 3, &rng);
  TinyGraph g;
  Backward(SumAll(conv.Forward(g.x, g.src, g.dst, Tensor())));
  for (const auto& p : conv.Parameters()) {
    ASSERT_FALSE(p.grad().empty());
  }
}

TEST(GnnEncoderTest, AllArchitecturesProduceShapes) {
  TinyGraph g;
  for (GnnArch arch : {GnnArch::kSage, GnnArch::kGcn, GnnArch::kGat}) {
    Rng rng(12);
    GnnEncoderConfig config;
    config.arch = arch;
    config.in_dim = 2;
    config.hidden_dim = 8;
    config.out_dim = 4;
    config.num_layers = 2;
    GnnEncoder encoder(config, &rng);
    Tensor h = encoder.Forward(g.x, g.src, g.dst, Tensor());
    EXPECT_EQ(h.rows(), 3);
    EXPECT_EQ(h.cols(), 4);
  }
}

TEST(GnnEncoderTest, ArchNames) {
  EXPECT_STREQ(GnnArchName(GnnArch::kSage), "GraphSAGE");
  EXPECT_STREQ(GnnArchName(GnnArch::kGat), "GAT");
  EXPECT_STREQ(GnnArchName(GnnArch::kGcn), "GCN");
}

TEST(GnnEncoderTest, ReadoutAveragesCenters) {
  Rng rng(13);
  GnnEncoderConfig config;
  config.in_dim = 2;
  config.hidden_dim = 4;
  config.out_dim = 4;
  config.num_layers = 1;
  GnnEncoder encoder(config, &rng);
  TinyGraph g;
  Tensor h = encoder.Forward(g.x, g.src, g.dst, Tensor());
  const std::vector<int> centers = {0, 2};
  Tensor readout = SegmentMeanRows(
      encoder.Forward(g.x, g.src, g.dst, Tensor(), &centers), {0, 0}, 1);
  EXPECT_EQ(readout.rows(), 1);
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(readout.at(0, c), 0.5f * (h.at(0, c) + h.at(2, c)), 1e-5f);
  }
}

// A random 24-node graph with a self loop and parallel edges, in which
// node 23 receives no edge.
struct RandomGraph {
  static constexpr int kNodes = 24;
  static constexpr int kEdges = 70;
  Tensor x, w;
  std::vector<int> src, dst;

  RandomGraph(int in_dim, uint64_t seed) {
    Rng rng(seed);
    x = Tensor::Randn(kNodes, in_dim, &rng);
    std::vector<float> weights;
    for (int e = 0; e < kEdges; ++e) {
      src.push_back(rng.UniformInt(kNodes));
      dst.push_back(rng.UniformInt(kNodes - 1));
      weights.push_back(rng.UniformFloat());
    }
    src.push_back(3);  // self loop
    dst.push_back(3);
    weights.push_back(0.5f);
    w = Tensor::FromData(static_cast<int>(src.size()), 1, weights);
  }
};

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  if (a.data().empty()) return;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(float)),
            0);
}

// The row-list output equals the gathered full output bit for bit, for
// every arch at 1-3 layers, weighted and unweighted: rows listed out of
// order, repeated rows, a row with no in-edges (node 23), a list whose
// rows keep no edge at all, and an empty list.
TEST(GnnEncoderTest, RowListMatchesGatheredFullOutput) {
  const std::vector<std::vector<int>> row_lists = {
      {17, 3, 23, 3, 0, 9, 17}, {23, 23}, {}};
  for (GnnArch arch : {GnnArch::kSage, GnnArch::kGcn, GnnArch::kGat}) {
    for (int layers = 1; layers <= 3; ++layers) {
      for (bool weighted : {false, true}) {
        SCOPED_TRACE(std::string(GnnArchName(arch)) + " layers=" +
                     std::to_string(layers) +
                     (weighted ? " weighted" : " unweighted"));
        Rng rng(40 + layers);
        GnnEncoderConfig config;
        config.arch = arch;
        config.in_dim = 5;
        config.hidden_dim = 12;
        config.out_dim = 7;
        config.num_layers = layers;
        GnnEncoder encoder(config, &rng);
        RandomGraph g(config.in_dim, 50 + layers);
        const Tensor w = weighted ? g.w : Tensor();
        NoGradGuard no_grad;
        for (const std::vector<int>& rows : row_lists) {
          ExpectBitwiseEqual(
              encoder.Forward(g.x, g.src, g.dst, w, &rows),
              GatherRows(encoder.Forward(g.x, g.src, g.dst, w), rows));
          // No edges at all: self terms only.
          const Tensor no_w = weighted ? Tensor::Zeros(0, 1) : Tensor();
          ExpectBitwiseEqual(encoder.Forward(g.x, {}, {}, no_w, &rows),
                             GatherRows(encoder.Forward(g.x, {}, {}, no_w),
                                        rows));
        }
      }
    }
  }
}

TEST(GnnEncoderTest, SingleLayerConfig) {
  Rng rng(14);
  GnnEncoderConfig config;
  config.in_dim = 2;
  config.out_dim = 3;
  config.num_layers = 1;
  GnnEncoder encoder(config, &rng);
  TinyGraph g;
  EXPECT_EQ(encoder.Forward(g.x, g.src, g.dst, Tensor()).cols(), 3);
}

}  // namespace
}  // namespace gp
