#include "gnn/output_rows.h"

#include "tensor/ops.h"
#include "util/logging.h"

namespace gp {

OutputRows::OutputRows(const std::vector<int>& src,
                       const std::vector<int>& dst, int num_nodes,
                       const std::vector<int>* rows)
    : rows_(rows),
      size_(rows ? static_cast<int>(rows->size()) : num_nodes),
      src_(&src),
      dst_(&dst) {
  CHECK_EQ(src.size(), dst.size());
  if (rows == nullptr) return;
  // Chain every node's positions in `rows`, first listed first, so an
  // edge is emitted once per output row of its destination.
  std::vector<int> head(num_nodes, -1);
  std::vector<int> next(size_, -1);
  for (int row = size_ - 1; row >= 0; --row) {
    const int node = (*rows)[row];
    CHECK_GE(node, 0);
    CHECK_LT(node, num_nodes);
    next[row] = head[node];
    head[node] = row;
  }
  for (size_t e = 0; e < dst.size(); ++e) {
    for (int row = head[dst[e]]; row != -1; row = next[row]) {
      kept_src_.push_back(src[e]);
      kept_dst_.push_back(row);
      kept_edges_.push_back(static_cast<int>(e));
    }
  }
  src_ = &kept_src_;
  dst_ = &kept_dst_;
}

Tensor OutputRows::Rows(const Tensor& t) const {
  return rows_ ? GatherRows(t, *rows_) : t;
}

Tensor OutputRows::Edges(const Tensor& t) const {
  return rows_ && t.defined() ? GatherRows(t, kept_edges_) : t;
}

}  // namespace gp
