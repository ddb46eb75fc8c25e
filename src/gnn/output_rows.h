// OutputRows: which destination rows one message-passing layer computes.
//
// A conv outputs every node by default. Given a row list — the readout
// rows of an encoder's last layer — it outputs one row per listed entry
// instead and keeps only the edges that land on those rows. Each output
// row then sees exactly the edges, in exactly the order, that its node
// sees in the full layer, and every per-row quantity of the convs (Linear
// rows, per-destination scatter sums, mean denominators, segment
// softmaxes) is computed independently of the other rows, so a listed row
// equals the full layer's row bit for bit.

#ifndef GRAPHPROMPTER_GNN_OUTPUT_ROWS_H_
#define GRAPHPROMPTER_GNN_OUTPUT_ROWS_H_

#include <vector>

#include "tensor/tensor.h"

namespace gp {

class OutputRows {
 public:
  // `rows` is null (every node; the edge lists pass through as given) or
  // lists node ids in [0, num_nodes) in any order; repeats are allowed
  // and each gets its own output row. The referenced vectors must outlive
  // this object.
  OutputRows(const std::vector<int>& src, const std::vector<int>& dst,
             int num_nodes, const std::vector<int>* rows);
  OutputRows(const OutputRows&) = delete;
  OutputRows& operator=(const OutputRows&) = delete;

  // Number of output rows.
  int size() const { return size_; }
  // Node id behind output row `row`.
  int node(int row) const { return rows_ ? (*rows_)[row] : row; }

  // The kept edges, in their original order: source node ids and the
  // output row each one lands on.
  const std::vector<int>& src() const { return *src_; }
  const std::vector<int>& dst() const { return *dst_; }

  // `t` (one row per node) restricted to the output rows.
  Tensor Rows(const Tensor& t) const;
  // A per-edge tensor (one row per input edge) restricted to the kept
  // edges. Undefined stays undefined.
  Tensor Edges(const Tensor& t) const;

 private:
  const std::vector<int>* rows_;
  int size_;
  const std::vector<int>* src_;
  const std::vector<int>* dst_;
  std::vector<int> kept_src_, kept_dst_, kept_edges_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_GNN_OUTPUT_ROWS_H_
