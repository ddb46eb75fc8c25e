// Graph Convolutional Network layer (Kipf & Welling 2017) with
// symmetric-normalised, optionally re-weighted aggregation.

#ifndef GRAPHPROMPTER_GNN_GCN_CONV_H_
#define GRAPHPROMPTER_GNN_GCN_CONV_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace gp {

// h_i' = W * ( x_i/(d_i+1) + sum_{j->i} w_ij * x_j / sqrt((d_i+1)(d_j+1)) ).
class GcnConv : public Module {
 public:
  GcnConv(int in_dim, int out_dim, Rng* rng);

  // Returns (N x out), or, when `rows` is set, one row per listed node
  // (see gnn/output_rows.h); degrees always come from the full edge list.
  Tensor Forward(const Tensor& x, const std::vector<int>& src,
                 const std::vector<int>& dst, const Tensor& edge_weight,
                 const std::vector<int>* rows = nullptr) const;

  int in_dim() const { return linear_->in_features(); }
  int out_dim() const { return linear_->out_features(); }

 private:
  std::unique_ptr<Linear> linear_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_GNN_GCN_CONV_H_
