#include "core/prompt_generator.h"

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace gp {
namespace {

PromptGeneratorConfig SmallConfig(int in_dim = 16) {
  PromptGeneratorConfig config;
  config.gnn.in_dim = in_dim;
  config.gnn.hidden_dim = 8;
  config.gnn.out_dim = 8;
  config.sampler.num_hops = 1;
  config.sampler.max_nodes = 12;
  return config;
}

class PromptGeneratorTest : public ::testing::Test {
 protected:
  PromptGeneratorTest() : dataset_(MakeArxivSim(0.1, 5)) {}
  DatasetBundle dataset_;
};

TEST_F(PromptGeneratorTest, EmbedItemsShape) {
  Rng rng(1);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(2);
  std::vector<int> items = {dataset_.train_items_by_class[0][0],
                            dataset_.train_items_by_class[1][0],
                            dataset_.train_items_by_class[2][0]};
  Tensor emb = generator.EmbedItems(dataset_, items, &sample_rng);
  EXPECT_EQ(emb.rows(), 3);
  EXPECT_EQ(emb.cols(), 8);
}

TEST_F(PromptGeneratorTest, EdgeWeightsAreInUnitInterval) {
  Rng rng(3);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(4);
  const int item = dataset_.train_items_by_class[0][0];
  Subgraph sg = generator.SampleForItem(dataset_, item, &sample_rng);
  Tensor weights = generator.ReconstructEdgeWeights(dataset_.graph, sg);
  EXPECT_EQ(weights.rows(), sg.num_edges());
  for (float w : weights.data()) {
    EXPECT_GT(w, 0.0f);
    EXPECT_LT(w, 1.0f);
  }
}

TEST_F(PromptGeneratorTest, ReconstructionDisabledGivesUnitWeights) {
  auto config = SmallConfig(dataset_.graph.feature_dim());
  config.use_reconstruction = false;
  Rng rng(5);
  PromptGenerator generator(config, &rng);
  Rng sample_rng(6);
  Subgraph sg = generator.SampleForItem(
      dataset_, dataset_.train_items_by_class[0][0], &sample_rng);
  Tensor weights = generator.ReconstructEdgeWeights(dataset_.graph, sg);
  for (float w : weights.data()) EXPECT_EQ(w, 1.0f);
}

TEST_F(PromptGeneratorTest, BatchedEqualsPerItemEmbedding) {
  // The disjoint-union batching must give the same embeddings as embedding
  // each subgraph alone.
  Rng rng(7);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(8);
  std::vector<Subgraph> subgraphs;
  for (int i = 0; i < 4; ++i) {
    subgraphs.push_back(generator.SampleForItem(
        dataset_, dataset_.train_items_by_class[i][0], &sample_rng));
  }
  Tensor batched = generator.EmbedSubgraphs(dataset_.graph, subgraphs);
  for (int i = 0; i < 4; ++i) {
    Tensor single = generator.EmbedSubgraphs(dataset_.graph, {subgraphs[i]});
    for (int c = 0; c < batched.cols(); ++c) {
      EXPECT_NEAR(batched.at(i, c), single.at(0, c), 1e-4f);
    }
  }
}

TEST_F(PromptGeneratorTest, GradientsFlowThroughReconstruction) {
  Rng rng(9);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(10);
  std::vector<int> items = {dataset_.train_items_by_class[0][0]};
  Backward(SumAll(generator.EmbedItems(dataset_, items, &sample_rng)));
  // Both the reconstruction MLP and the GNN must receive gradients.
  bool any_recon_grad = false;
  for (const auto& [name, p] : generator.NamedParameters()) {
    if (name.find("recon") != std::string::npos && !p.grad().empty()) {
      float total = 0;
      for (float g : p.grad()) total += std::abs(g);
      any_recon_grad = any_recon_grad || total > 0;
    }
  }
  EXPECT_TRUE(any_recon_grad);
}

TEST_F(PromptGeneratorTest, EdgeTaskEmbedsEdges) {
  DatasetBundle kg = MakeConceptNetSim(0.2, 11);
  Rng rng(12);
  PromptGenerator generator(SmallConfig(kg.graph.feature_dim()), &rng);
  Rng sample_rng(13);
  std::vector<int> items = {kg.train_items_by_class[0][0],
                            kg.train_items_by_class[1][0]};
  Tensor emb = generator.EmbedItems(kg, items, &sample_rng);
  EXPECT_EQ(emb.rows(), 2);
}

TEST_F(PromptGeneratorTest, FeatureOffsetChangesEmbedding) {
  Rng rng(14);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(15);
  Subgraph sg = generator.SampleForItem(
      dataset_, dataset_.train_items_by_class[0][0], &sample_rng);
  Tensor base = generator.EmbedSubgraphs(dataset_.graph, {sg});
  Tensor offset = Tensor::Full(1, dataset_.graph.feature_dim(), 0.5f);
  Tensor shifted = generator.EmbedSubgraphs(dataset_.graph, {sg}, offset);
  float diff = 0;
  for (int64_t i = 0; i < base.size(); ++i) {
    diff += std::abs(base.data()[i] - shifted.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST_F(PromptGeneratorTest, BilinearReconstructionVariant) {
  auto config = SmallConfig(dataset_.graph.feature_dim());
  config.recon_arch = ReconArch::kBilinear;
  Rng rng(30);
  PromptGenerator generator(config, &rng);
  Rng sample_rng(31);
  Subgraph sg = generator.SampleForItem(
      dataset_, dataset_.train_items_by_class[0][0], &sample_rng);
  Tensor weights = generator.ReconstructEdgeWeights(dataset_.graph, sg);
  EXPECT_EQ(weights.rows(), sg.num_edges());
  for (float w : weights.data()) {
    EXPECT_GT(w, 0.0f);
    EXPECT_LT(w, 1.0f);
  }
  // Gradients reach the bilinear weight matrix.
  std::vector<int> items = {dataset_.train_items_by_class[0][0]};
  Backward(SumAll(generator.EmbedItems(dataset_, items, &sample_rng)));
  bool any_grad = false;
  for (const auto& [name, p] : generator.NamedParameters()) {
    if (name.find("bilinear") != std::string::npos && !p.grad().empty()) {
      any_grad = true;
    }
  }
  EXPECT_TRUE(any_grad);
}

// Inference encodes GNN_D's last layer at the center rows only; autograd
// runs it over every union row and gathers the centers. Both must give the
// same bits, over a union of edge items (two centers each), a node item
// and a self-loop edge (one center listed twice).
TEST_F(PromptGeneratorTest, InferenceEmbeddingMatchesAutogradBitwise) {
  DatasetBundle kg = MakeConceptNetSim(0.2, 11);
  for (GnnArch arch : {GnnArch::kSage, GnnArch::kGcn, GnnArch::kGat}) {
    for (bool reconstruct : {true, false}) {
      SCOPED_TRACE(std::string(GnnArchName(arch)) +
                   (reconstruct ? " reconstruction" : " unit weights"));
      auto config = SmallConfig(kg.graph.feature_dim());
      config.gnn.arch = arch;
      config.use_reconstruction = reconstruct;
      Rng rng(40);
      PromptGenerator generator(config, &rng);
      Rng sample_rng(41);
      std::vector<Subgraph> subgraphs;
      for (int c = 0; c < 4; ++c) {
        subgraphs.push_back(generator.SampleForItem(
            kg, kg.train_items_by_class[c][0], &sample_rng));
      }
      const int loop_node = kg.graph.edge(kg.train_items_by_class[0][0]).src;
      subgraphs.push_back(RandomWalkSampler(&kg.graph, config.sampler)
                              .SampleAroundNodes({loop_node, loop_node},
                                                 &sample_rng));
      ASSERT_EQ(subgraphs.back().center_local.size(), 2u);
      EXPECT_EQ(subgraphs.back().center_local[0],
                subgraphs.back().center_local[1]);
      subgraphs.push_back(generator.SampleForNode(kg.graph, 7, &sample_rng));

      Tensor autograd = generator.EmbedSubgraphs(kg.graph, subgraphs);
      ASSERT_TRUE(autograd.requires_grad());
      NoGradGuard no_grad;
      Tensor inference = generator.EmbedSubgraphs(kg.graph, subgraphs);
      ASSERT_EQ(inference.rows(), static_cast<int>(subgraphs.size()));
      ASSERT_EQ(inference.cols(), autograd.cols());
      EXPECT_EQ(std::memcmp(inference.data().data(), autograd.data().data(),
                            autograd.data().size() * sizeof(float)),
                0);
    }
  }
}

TEST_F(PromptGeneratorTest, ReconArchNames) {
  EXPECT_STREQ(ReconArchName(ReconArch::kMlp), "MLP");
  EXPECT_STREQ(ReconArchName(ReconArch::kBilinear), "bilinear");
}

TEST_F(PromptGeneratorTest, BfsSamplerVariantWorks) {
  auto config = SmallConfig(dataset_.graph.feature_dim());
  config.use_random_walk = false;
  Rng rng(16);
  PromptGenerator generator(config, &rng);
  Rng sample_rng(17);
  Subgraph sg = generator.SampleForItem(
      dataset_, dataset_.train_items_by_class[0][0], &sample_rng);
  EXPECT_GE(sg.num_nodes(), 1);
  EXPECT_LE(sg.num_nodes(), config.sampler.max_nodes);
}

TEST_F(PromptGeneratorTest, MultiHopSamplesAtLeastAsManyNodes) {
  auto config1 = SmallConfig(dataset_.graph.feature_dim());
  config1.sampler.max_nodes = 60;
  auto config3 = config1;
  config3.sampler.num_hops = 3;
  Rng rng(18);
  PromptGenerator g1(config1, &rng);
  PromptGenerator g3(config3, &rng);
  double nodes1 = 0, nodes3 = 0;
  Rng s1(19), s3(19);
  for (int i = 0; i < 20; ++i) {
    const int item = dataset_.train_items_by_class[i % 5][0];
    nodes1 += g1.SampleForItem(dataset_, item, &s1).num_nodes();
    nodes3 += g3.SampleForItem(dataset_, item, &s3).num_nodes();
  }
  EXPECT_GE(nodes3, nodes1);
}

}  // namespace
}  // namespace gp
