#include "core/task_graph.h"

#include "obs/trace.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace gp {

TaskGraphNet::AttentionLayer::AttentionLayer(int dim, Rng* rng) {
  message = std::make_unique<Linear>(dim + kEdgeFeatDim, dim, rng);
  self = std::make_unique<Linear>(dim, dim, rng);
  RegisterModule("message", message.get());
  RegisterModule("self", self.get());
  attn_src = RegisterParameter("attn_src", Tensor::Xavier(dim, 1, rng));
  attn_dst = RegisterParameter("attn_dst", Tensor::Xavier(dim, 1, rng));
  attn_edge =
      RegisterParameter("attn_edge", Tensor::Xavier(kEdgeFeatDim, 1, rng));
  gate = RegisterParameter("gate", Tensor::Zeros(1, 1));
}

TaskGraphNet::TaskGraphNet(const TaskGraphConfig& config, Rng* rng)
    : config_(config) {
  CHECK_GE(config.num_layers, 1);
  label_init_ = RegisterParameter(
      "label_init",
      Tensor::Randn(1, config.embedding_dim, rng, /*stddev=*/0.1f));
  for (int i = 0; i < config.num_layers; ++i) {
    layers_.push_back(
        std::make_unique<AttentionLayer>(config.embedding_dim, rng));
    RegisterModule("attn" + std::to_string(i), layers_.back().get());
  }
}

TaskGraphOutput TaskGraphNet::Forward(const Tensor& prompt_embeddings,
                                      const std::vector<int>& prompt_labels,
                                      const Tensor& query_embeddings,
                                      int num_classes) const {
  return std::move(ForwardBatch({{&prompt_embeddings, &prompt_labels,
                                  &query_embeddings, num_classes}})[0]);
}

std::vector<TaskGraphOutput> TaskGraphNet::ForwardBatch(
    const std::vector<TaskGraphUnit>& units) const {
  if (units.empty()) return {};
  GP_TRACE_SPAN(units.size() == 1 ? "task_graph/forward"
                                  : "task_graph/forward_batch");
  const int dim = config_.embedding_dim;

  // Node layout: per unit [prompts | queries | labels], units concatenated.
  // Initial features: data-graph embeddings for data nodes. Label nodes
  // start from the mean of their true-class prompts ("label embeddings in
  // the task graph are aggregated from prompts", Sec. IV-B1) plus a shared
  // learnable offset; the attention layers then refine them.
  struct UnitLayout {
    int base = 0;        // first node of the unit
    int num_prompts = 0;
    int num_queries = 0;
    int num_classes = 0;
  };
  std::vector<UnitLayout> layout(units.size());
  std::vector<Tensor> feature_parts;
  feature_parts.reserve(units.size() * 3);
  int total_nodes = 0;
  for (size_t u = 0; u < units.size(); ++u) {
    const TaskGraphUnit& unit = units[u];
    CHECK_EQ(unit.prompt_embeddings->cols(), dim);
    CHECK_EQ(unit.query_embeddings->cols(), dim);
    CHECK_EQ(static_cast<size_t>(unit.prompt_embeddings->rows()),
             unit.prompt_labels->size());
    CHECK_GE(unit.num_classes, 1);
    UnitLayout& l = layout[u];
    l.base = total_nodes;
    l.num_prompts = unit.prompt_embeddings->rows();
    l.num_queries = unit.query_embeddings->rows();
    l.num_classes = unit.num_classes;
    total_nodes += l.num_prompts + l.num_queries + l.num_classes;
    feature_parts.push_back(*unit.prompt_embeddings);
    feature_parts.push_back(*unit.query_embeddings);
    feature_parts.push_back(
        Add(SegmentMeanRows(*unit.prompt_embeddings, *unit.prompt_labels,
                            unit.num_classes),
            label_init_));
  }
  Tensor h = ConcatRows(feature_parts);

  // Bipartite edges, both directions, with edge attributes, emitted unit by
  // unit: every destination node sees its incoming edges in the same
  // sequence as when its unit runs alone, so SegmentSoftmax and the
  // scatter-add reduce in the same order and reproduce those values
  // bitwise.
  std::vector<int> src, dst;
  std::vector<float> edge_feat;  // flattened (E x kEdgeFeatDim)
  auto add_edge = [&](int from, int to, bool is_true, bool is_false,
                      bool is_query, bool reverse) {
    src.push_back(from);
    dst.push_back(to);
    edge_feat.push_back(is_true ? 1.0f : 0.0f);
    edge_feat.push_back(is_false ? 1.0f : 0.0f);
    edge_feat.push_back(is_query ? 1.0f : 0.0f);
    edge_feat.push_back(reverse ? 1.0f : 0.0f);
  };
  for (size_t u = 0; u < units.size(); ++u) {
    const UnitLayout& l = layout[u];
    const std::vector<int>& labels = *units[u].prompt_labels;
    const int label_base = l.base + l.num_prompts + l.num_queries;
    for (int p = 0; p < l.num_prompts; ++p) {
      for (int c = 0; c < l.num_classes; ++c) {
        const bool is_true = labels[p] == c;
        add_edge(l.base + p, label_base + c, is_true, !is_true, false, false);
        add_edge(label_base + c, l.base + p, is_true, !is_true, false, true);
      }
    }
    for (int q = 0; q < l.num_queries; ++q) {
      for (int c = 0; c < l.num_classes; ++c) {
        add_edge(l.base + l.num_prompts + q, label_base + c, false, false,
                 true, false);
        add_edge(label_base + c, l.base + l.num_prompts + q, false, false,
                 true, true);
      }
    }
  }
  const int num_edges = static_cast<int>(src.size());
  Tensor efeat =
      Tensor::FromData(num_edges, kEdgeFeatDim, std::move(edge_feat));

  // Attention message passing (GNN_T). Inference runs the message Linear
  // once per node instead of once per edge (GatherLinearScaleScatterAdd,
  // bitwise equal to the chain). Training keeps the chain: a fused node
  // recorded after SegmentSoftmax would move the message path's h.grad
  // contribution ahead of the attention logits' on the tape and change
  // the gradient bits.
  const bool fused = !GradEnabled();
  for (size_t li = 0; li < layers_.size(); ++li) {
    const auto& layer = *layers_[li];
    Tensor messages;  // (E x d), chain path only
    if (!fused) {
      messages = layer.message->Forward(ConcatCols(GatherRows(h, src), efeat));
    }
    // Attention logits combine source, destination, and edge attributes.
    Tensor logits = LeakyRelu(
        Add(Add(GatherRows(MatMul(h, layer.attn_src), src),
                GatherRows(MatMul(h, layer.attn_dst), dst)),
            MatMul(efeat, layer.attn_edge)),
        config_.leaky_slope);
    Tensor alpha = SegmentSoftmax(logits, dst, total_nodes);
    Tensor aggregated =
        fused ? GatherLinearScaleScatterAdd(
                    h, src, efeat, layer.message->weight(),
                    layer.message->bias(), alpha, dst, total_nodes)
              : RowScaleScatterAdd(messages, alpha, dst, total_nodes);
    // Residual update: the initial metric structure (queries vs class
    // means) is preserved and the attention learns a correction.
    Tensor update = Add(layer.self->Forward(h), aggregated);
    if (li + 1 < layers_.size()) update = Relu(update);
    h = Add(h, Mul(update, layer.gate));
  }

  // Per-unit score heads (Eq. 11): cosine similarity between the unit's
  // query and label embeddings, scaled into logits, so no cross-unit pair
  // is ever scored.
  std::vector<TaskGraphOutput> outputs(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    const UnitLayout& l = layout[u];
    TaskGraphOutput& out = outputs[u];
    out.query_embeddings = SliceRows(h, l.base + l.num_prompts, l.num_queries);
    out.label_embeddings =
        SliceRows(h, l.base + l.num_prompts + l.num_queries, l.num_classes);
    Tensor qn = RowL2Normalize(out.query_embeddings);
    Tensor ln = RowL2Normalize(out.label_embeddings);
    out.query_scores =
        Scale(MatMul(qn, Transpose(ln)), config_.score_temperature);
  }
  return outputs;
}

}  // namespace gp
