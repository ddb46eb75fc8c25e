#include "gnn/gcn_conv.h"

#include <cmath>

#include "gnn/output_rows.h"
#include "tensor/ops.h"

namespace gp {

GcnConv::GcnConv(int in_dim, int out_dim, Rng* rng) {
  linear_ = std::make_unique<Linear>(in_dim, out_dim, rng);
  RegisterModule("linear", linear_.get());
}

Tensor GcnConv::Forward(const Tensor& x, const std::vector<int>& src,
                        const std::vector<int>& dst,
                        const Tensor& edge_weight,
                        const std::vector<int>* rows) const {
  const int num_nodes = x.rows();
  const OutputRows out_rows(src, dst, num_nodes, rows);

  // Degrees (+1 for the implicit self loop); constants w.r.t. autograd.
  std::vector<float> degree(num_nodes, 1.0f);
  for (int d : dst) degree[d] += 1.0f;

  // Self term: x_i / (d_i + 1).
  std::vector<float> self_coeff(out_rows.size());
  for (int r = 0; r < out_rows.size(); ++r) {
    self_coeff[r] = 1.0f / degree[out_rows.node(r)];
  }
  Tensor agg = RowScale(out_rows.Rows(x),
                        Tensor::FromData(out_rows.size(), 1, self_coeff));

  if (!src.empty()) {
    if (edge_weight.defined()) {
      CHECK_EQ(edge_weight.rows(), static_cast<int>(src.size()));
    }
    const std::vector<int>& kept_src = out_rows.src();
    const std::vector<int>& kept_dst = out_rows.dst();
    const int num_edges = static_cast<int>(kept_src.size());
    std::vector<float> norm(num_edges);
    for (int e = 0; e < num_edges; ++e) {
      norm[e] = 1.0f / std::sqrt(degree[kept_src[e]] *
                                 degree[out_rows.node(kept_dst[e])]);
    }
    Tensor coeff = Tensor::FromData(num_edges, 1, std::move(norm));
    if (edge_weight.defined()) {
      coeff = Mul(out_rows.Edges(edge_weight), coeff);
    }
    agg = Add(agg, GatherScaleScatterSum(x, kept_src, kept_dst,
                                         out_rows.size(), coeff));
  }
  return linear_->Forward(agg);
}

}  // namespace gp
