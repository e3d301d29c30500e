// Builders for the six models the paper uses, plus a registry by name.
//
// Parameter counts (validated by tests against the paper's Table I /
// standard references):
//   ResNet-50  ≈ 25.6M    ResNet-152 ≈ 60.2M
//   BERT-Base  ≈ 110M     BERT-Large ≈ 336M
//   VGG-16     ≈ 138M     ResNet-18  ≈ 11.7M
#pragma once

#include "models/layer_spec.h"

namespace acps::models {

// ImageNet-style ResNets (input 3×224×224, 1000 classes — the paper's
// performance setting).
[[nodiscard]] ModelSpec ResNet18(int num_classes = 1000);
[[nodiscard]] ModelSpec ResNet50(int num_classes = 1000);
[[nodiscard]] ModelSpec ResNet152(int num_classes = 1000);

// VGG-16 with ImageNet head.
[[nodiscard]] ModelSpec Vgg16(int num_classes = 1000);

// BERT with the paper's sequence length of 64.
[[nodiscard]] ModelSpec BertBase(int seq_len = 64);
[[nodiscard]] ModelSpec BertLarge(int seq_len = 64);

// Lookup by the names used throughout benches: "resnet50", "resnet152",
// "bert-base", "bert-large", "vgg16", "resnet18". Throws on unknown name.
[[nodiscard]] ModelSpec ByName(const std::string& name);

// The paper's evaluation set with its per-GPU batch sizes
// (64 / 32 / 32 / 8) and Power-SGD ranks (4 / 4 / 32 / 32).
struct EvalModel {
  std::string name;
  int batch_size;
  int64_t powersgd_rank;
};
[[nodiscard]] std::vector<EvalModel> PaperEvalSet();

}  // namespace acps::models
