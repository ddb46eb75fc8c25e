#include "gnn/encoder.h"

#include "tensor/ops.h"

namespace gp {

const char* GnnArchName(GnnArch arch) {
  switch (arch) {
    case GnnArch::kSage:
      return "GraphSAGE";
    case GnnArch::kGcn:
      return "GCN";
    case GnnArch::kGat:
      return "GAT";
  }
  return "?";
}

GnnEncoder::GnnEncoder(const GnnEncoderConfig& config, Rng* rng)
    : config_(config) {
  CHECK_GE(config.num_layers, 1);
  for (int i = 0; i < config.num_layers; ++i) {
    const int in = (i == 0) ? config.in_dim : config.hidden_dim;
    const int out =
        (i == config.num_layers - 1) ? config.out_dim : config.hidden_dim;
    const std::string name = "conv" + std::to_string(i);
    switch (config.arch) {
      case GnnArch::kSage:
        sage_layers_.push_back(std::make_unique<SageConv>(in, out, rng));
        RegisterModule(name, sage_layers_.back().get());
        break;
      case GnnArch::kGcn:
        gcn_layers_.push_back(std::make_unique<GcnConv>(in, out, rng));
        RegisterModule(name, gcn_layers_.back().get());
        break;
      case GnnArch::kGat:
        gat_layers_.push_back(std::make_unique<GatConv>(in, out, rng));
        RegisterModule(name, gat_layers_.back().get());
        break;
    }
  }
}

Tensor GnnEncoder::ApplyLayer(int layer, const Tensor& x,
                              const std::vector<int>& src,
                              const std::vector<int>& dst,
                              const Tensor& edge_weight,
                              const std::vector<int>* rows) const {
  switch (config_.arch) {
    case GnnArch::kSage:
      return sage_layers_[layer]->Forward(x, src, dst, edge_weight, rows);
    case GnnArch::kGcn:
      return gcn_layers_[layer]->Forward(x, src, dst, edge_weight, rows);
    case GnnArch::kGat:
      return gat_layers_[layer]->Forward(x, src, dst, edge_weight, rows);
  }
  return x;
}

Tensor GnnEncoder::Forward(const Tensor& x, const std::vector<int>& src,
                           const std::vector<int>& dst,
                           const Tensor& edge_weight,
                           const std::vector<int>* rows) const {
  Tensor h = x;
  for (int i = 0; i < config_.num_layers; ++i) {
    const bool last = i + 1 == config_.num_layers;
    h = ApplyLayer(i, h, src, dst, edge_weight, last ? rows : nullptr);
    if (!last) h = Relu(h);
  }
  return h;
}

}  // namespace gp
