// Task graph and its attention GNN_T (Sec. III-B "Task Graphs" and Eq. 10).
//
// The task graph is bipartite: data nodes (prompt and query data-graph
// embeddings) on one side, label nodes on the other. Every prompt connects
// to every label node with an edge attribute encoding {true label, false
// label}; query-label edges carry a distinct "query" attribute. An
// attention-based message-passing network (following Prodigy's task-graph
// model) fuses prompts into label embeddings and contextualises queries;
// the prediction is the label whose embedding is most cosine-similar to
// the query embedding (Eq. 11).

#ifndef GRAPHPROMPTER_CORE_TASK_GRAPH_H_
#define GRAPHPROMPTER_CORE_TASK_GRAPH_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace gp {

struct TaskGraphConfig {
  int embedding_dim = 64;
  int num_layers = 2;
  float leaky_slope = 0.2f;
  // Cosine scores are multiplied by this before the softmax/CE loss.
  float score_temperature = 10.0f;
};

struct TaskGraphOutput {
  // (Q x m) scaled cosine similarities — logits for prediction/loss.
  Tensor query_scores;
  // Final embeddings of query and label nodes ((Q x d), (m x d)).
  Tensor query_embeddings;
  Tensor label_embeddings;
};

// One independent task graph inside a stacked ForwardBatch call. The
// referenced tensors must outlive the call.
struct TaskGraphUnit {
  const Tensor* prompt_embeddings = nullptr;   // (P_i x d)
  const std::vector<int>* prompt_labels = nullptr;
  const Tensor* query_embeddings = nullptr;    // (Q_i x d)
  int num_classes = 0;                         // m_i
};

// The attention network over the task graph.
class TaskGraphNet : public Module {
 public:
  TaskGraphNet(const TaskGraphConfig& config, Rng* rng);

  // prompt_embeddings: (P x d) — the (importance-weighted) prompt set;
  // prompt_labels: episode-local class per prompt (values in [0, m));
  // query_embeddings: (Q x d); num_classes: m. A one-unit ForwardBatch.
  TaskGraphOutput Forward(const Tensor& prompt_embeddings,
                          const std::vector<int>& prompt_labels,
                          const Tensor& query_embeddings,
                          int num_classes) const;

  // Stacked forward over independent task graphs: the units are packed
  // into one block-diagonal graph (disjoint node ranges, no cross-unit
  // edges) so every Linear/attention kernel runs once per layer for the
  // whole batch instead of once per unit. Every kernel involved is
  // row- or segment-independent (the GEMM per-element order matches the
  // naive loop, SegmentSoftmax and the scatter-add reduce per destination
  // node over that node's edges in emission order), so each unit's output
  // is bitwise identical to a standalone Forward on the same inputs — the
  // contract the batched serving path relies on, pinned by
  // tests/serve_batch_test.cc. Under NoGradGuard the message Linear runs
  // once per node through GatherLinearScaleScatterAdd (tensor/ops.h),
  // bitwise equal to the per-edge chain autograd records.
  std::vector<TaskGraphOutput> ForwardBatch(
      const std::vector<TaskGraphUnit>& units) const;

  const TaskGraphConfig& config() const { return config_; }

 private:
  // Edge attribute layout (one-hot-ish, 4 dims):
  //   [0] prompt edge with TRUE label   [1] prompt edge with FALSE label
  //   [2] query edge                    [3] direction (0 = data->label).
  static constexpr int kEdgeFeatDim = 4;

  struct AttentionLayer : public Module {
    AttentionLayer(int dim, Rng* rng);
    std::unique_ptr<Linear> message;   // (d + 4) -> d
    std::unique_ptr<Linear> self;      // d -> d
    Tensor attn_src;                   // (d x 1)
    Tensor attn_dst;                   // (d x 1)
    Tensor attn_edge;                  // (4 x 1)
    // ReZero-style residual gate, initialised to zero: the task graph
    // starts as a pure metric classifier over the label-node class means
    // and learns how much attention correction to apply.
    Tensor gate;                       // (1 x 1)
  };

  TaskGraphConfig config_;
  Tensor label_init_;  // learnable shared initial label-node embedding
  std::vector<std::unique_ptr<AttentionLayer>> layers_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_TASK_GRAPH_H_
