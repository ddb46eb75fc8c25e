#include "gnn/gat_conv.h"

#include "gnn/output_rows.h"
#include "tensor/ops.h"

namespace gp {

GatConv::GatConv(int in_dim, int out_dim, Rng* rng, float negative_slope)
    : negative_slope_(negative_slope) {
  linear_ = std::make_unique<Linear>(in_dim, out_dim, rng);
  RegisterModule("linear", linear_.get());
  attn_src_ = RegisterParameter("attn_src", Tensor::Xavier(out_dim, 1, rng));
  attn_dst_ = RegisterParameter("attn_dst", Tensor::Xavier(out_dim, 1, rng));
}

Tensor GatConv::Forward(const Tensor& x, const std::vector<int>& src,
                        const std::vector<int>& dst,
                        const Tensor& edge_weight,
                        const std::vector<int>* rows) const {
  const OutputRows out_rows(src, dst, x.rows(), rows);
  Tensor h = linear_->Forward(x);
  Tensor h_out = out_rows.Rows(h);
  if (src.empty()) return h_out;

  // Per-node attention scores, then per-edge logits.
  const std::vector<int>& kept_src = out_rows.src();
  const std::vector<int>& kept_dst = out_rows.dst();
  Tensor score_src = MatMul(h, attn_src_);      // (N x 1)
  Tensor score_dst = MatMul(h_out, attn_dst_);  // (rows x 1)
  Tensor logits = LeakyRelu(
      Add(GatherRows(score_src, kept_src), GatherRows(score_dst, kept_dst)),
      negative_slope_);
  // Softmax over each destination node's incoming edges.
  Tensor alpha = SegmentSoftmax(logits, kept_dst, out_rows.size());
  if (edge_weight.defined()) {
    CHECK_EQ(edge_weight.rows(), static_cast<int>(src.size()));
    alpha = Mul(alpha, out_rows.Edges(edge_weight));
  }
  return Add(h_out, GatherScaleScatterSum(h, kept_src, kept_dst,
                                          out_rows.size(), alpha));
}

}  // namespace gp
