#include "models/model_zoo.h"

#include <algorithm>

#include "compress/powersgd.h"

namespace acps::models {

int64_t ModelSpec::total_params() const {
  int64_t total = 0;
  for (const auto& l : layers) total += l.numel();
  return total;
}

double ModelSpec::total_fwd_flops_per_sample() const {
  double total = 0.0;
  for (const auto& l : layers) total += l.fwd_flops_per_sample;
  return total;
}

std::vector<const LayerSpec*> ModelSpec::backward_order() const {
  std::vector<const LayerSpec*> order;
  order.reserve(layers.size());
  for (auto it = layers.rbegin(); it != layers.rend(); ++it)
    order.push_back(&*it);
  return order;
}

ModelSpec::LowRankFootprint ModelSpec::FootprintAtRank(int64_t rank) const {
  LowRankFootprint fp;
  for (const auto& l : layers) {
    if (l.compressible &&
        compress::LowRankWorthwhile({l.matrix_rows, l.matrix_cols}, rank)) {
      const int64_t r =
          compress::EffectiveRank(l.matrix_rows, l.matrix_cols, rank);
      fp.p_elements += l.matrix_rows * r;
      fp.q_elements += l.matrix_cols * r;
    } else {
      fp.dense_elements += l.numel();
    }
  }
  return fp;
}

double ModelSpec::LowRankCompressionRatio(int64_t rank) const {
  const LowRankFootprint fp = FootprintAtRank(rank);
  const auto compressed = fp.p_elements + fp.q_elements + fp.dense_elements;
  ACPS_CHECK(compressed > 0);
  return static_cast<double>(total_params()) /
         static_cast<double>(compressed);
}

double ModelSpec::AcpCompressionRatio(int64_t rank) const {
  const LowRankFootprint fp = FootprintAtRank(rank);
  const double compressed = 0.5 * static_cast<double>(fp.p_elements +
                                                      fp.q_elements) +
                            static_cast<double>(fp.dense_elements);
  ACPS_CHECK(compressed > 0);
  return static_cast<double>(total_params()) / compressed;
}

ModelSpec ByName(const std::string& name) {
  if (name == "resnet18") return ResNet18();
  if (name == "resnet50") return ResNet50();
  if (name == "resnet152") return ResNet152();
  if (name == "vgg16") return Vgg16();
  if (name == "bert-base") return BertBase();
  if (name == "bert-large") return BertLarge();
  ACPS_FAIL_MSG("unknown model '" << name << "'");
}

std::vector<EvalModel> PaperEvalSet() {
  return {
      {"resnet50", 64, 4},
      {"resnet152", 32, 4},
      {"bert-base", 32, 32},
      {"bert-large", 8, 32},
  };
}

}  // namespace acps::models
