#include "gnn/sage_conv.h"

#include "gnn/output_rows.h"
#include "tensor/ops.h"

namespace gp {

SageConv::SageConv(int in_dim, int out_dim, Rng* rng) {
  self_ = std::make_unique<Linear>(in_dim, out_dim, rng);
  neighbor_ = std::make_unique<Linear>(in_dim, out_dim, rng,
                                       /*use_bias=*/false);
  RegisterModule("self", self_.get());
  RegisterModule("neighbor", neighbor_.get());
}

Tensor SageConv::Forward(const Tensor& x, const std::vector<int>& src,
                         const std::vector<int>& dst,
                         const Tensor& edge_weight,
                         const std::vector<int>* rows) const {
  const OutputRows out_rows(src, dst, x.rows(), rows);
  Tensor out = self_->Forward(out_rows.Rows(x));
  if (src.empty()) return out;

  if (edge_weight.defined()) {
    CHECK_EQ(edge_weight.rows(), static_cast<int>(src.size()));
    CHECK_EQ(edge_weight.cols(), 1);
  }
  // Weighted mean over incoming messages, in one fused kernel (no
  // per-edge message matrix or ones column is materialised); epsilon
  // guards isolated nodes / all-zero weights.
  Tensor mean = GatherScaleScatterMean(x, out_rows.src(), out_rows.dst(),
                                       out_rows.size(),
                                       out_rows.Edges(edge_weight), 1e-6f);
  return Add(out, neighbor_->Forward(mean));
}

}  // namespace gp
