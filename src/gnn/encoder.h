// GnnEncoder: a configurable stack of message-passing layers producing the
// node embeddings that the data-graph embedding G_i of Eq. 4 reads out.

#ifndef GRAPHPROMPTER_GNN_ENCODER_H_
#define GRAPHPROMPTER_GNN_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "gnn/gat_conv.h"
#include "gnn/gcn_conv.h"
#include "gnn/sage_conv.h"
#include "nn/module.h"

namespace gp {

// Which convolution the encoder stacks (Fig. 4 compares kSage vs kGat).
enum class GnnArch { kSage, kGcn, kGat };

const char* GnnArchName(GnnArch arch);

struct GnnEncoderConfig {
  GnnArch arch = GnnArch::kSage;
  int in_dim = 64;
  int hidden_dim = 64;
  int out_dim = 64;
  int num_layers = 2;
};

// Stacks `num_layers` convolutions with ReLU in between. All layers accept
// an optional (E x 1) edge-weight tensor, through which the Prompt
// Generator's reconstruction gradients flow.
class GnnEncoder : public Module {
 public:
  GnnEncoder(const GnnEncoderConfig& config, Rng* rng);

  // Returns per-node embeddings (N x out_dim), or, when `rows` is set, one
  // row per listed node, bitwise equal to those rows of the full output.
  // Only the last layer is restricted: every earlier layer's rows feed it.
  Tensor Forward(const Tensor& x, const std::vector<int>& src,
                 const std::vector<int>& dst, const Tensor& edge_weight,
                 const std::vector<int>* rows = nullptr) const;

  const GnnEncoderConfig& config() const { return config_; }

 private:
  Tensor ApplyLayer(int layer, const Tensor& x, const std::vector<int>& src,
                    const std::vector<int>& dst, const Tensor& edge_weight,
                    const std::vector<int>* rows) const;

  GnnEncoderConfig config_;
  std::vector<std::unique_ptr<SageConv>> sage_layers_;
  std::vector<std::unique_ptr<GcnConv>> gcn_layers_;
  std::vector<std::unique_ptr<GatConv>> gat_layers_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_GNN_ENCODER_H_
