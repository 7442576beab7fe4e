// Golden pin of the scalar oracle: FNV-1a checksums of both default models'
// int32 logit codes over a fixed seeded scene set, asserted under every
// kernel backend this host can run. The other bit-identity gates compare a
// fast path with the scalar path of the same build, so a change to
// rounding, saturation or requantization moves both sides and keeps them
// green; these checksums catch it. The same file pins the fitting oracle:
// checksums of the serialized GQA-RM fit of each paper op, which the
// logits see only through the deployed units.
//
// The expected values live in tests/golden/logits.json. After an intended
// numerics or fitting change, regenerate the file (the scalar oracle
// writes it) and review the diff:
//
//   ./build/golden_test --gtest_also_run_disabled_tests
//       --gtest_filter=GoldenLogits.DISABLED_Regenerate
//
// (one command line).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/approximator.h"
#include "eval/scene.h"
#include "kernel/dispatch.h"
#include "numerics/nonlinear.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"
#include "tfm/nonlinear_provider.h"
#include "util/artifact_store.h"
#include "util/json.h"

namespace gqa {
namespace {

constexpr int kScenes = 4;
constexpr std::uint64_t kSceneSeed = 0x601D;

/// Both default-config models, calibrated on the first scene and frozen,
/// plus a provider that replaces all five paper ops with GQA-RM fits.
struct GoldenStack {
  std::vector<tfm::Tensor> images;
  tfm::SegformerB0Like segformer;
  tfm::EfficientViTB0Like efficientvit;
  tfm::NonlinearProvider provider;

  GoldenStack()
      : provider([] {
          const CacheScope no_store("");  // fit in-process, never read a cache
          return tfm::NonlinearProvider::with_method(
              Method::kGqaRm,
              {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});
        }()) {
    for (const LabeledScene& s : make_scene_set(SceneOptions{}, kScenes,
                                                kSceneSeed)) {
      images.push_back(s.image);
    }
    segformer.calibrate(images.front());
    segformer.freeze();
    efficientvit.calibrate(images.front());
    efficientvit.freeze();
  }
};

const GoldenStack& stack() {
  static const GoldenStack s;
  return s;
}

std::string hex64(std::uint64_t v) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(v));
  return hex;
}

/// FNV-1a over every logit code of every scene, each code as 4
/// little-endian bytes, scenes in order.
template <typename Model>
std::string logits_checksum(const Model& model) {
  std::string bytes;
  for (const tfm::Tensor& image : stack().images) {
    const tfm::QTensor logits = model.forward_int(image, stack().provider);
    for (const std::int32_t code : logits.data()) {
      const auto u = static_cast<std::uint32_t>(code);
      for (int b = 0; b < 4; ++b) {
        bytes.push_back(static_cast<char>((u >> (8 * b)) & 0xFF));
      }
    }
  }
  return hex64(fnv1a(bytes));
}

Json current_checksums() {
  Json j = Json::object();
  j["segformer"] = Json(logits_checksum(stack().segformer));
  j["efficientvit"] = Json(logits_checksum(stack().efficientvit));
  return j;
}

/// FNV-1a over the compact JSON of each paper op's default GQA-RM fit,
/// keyed by op name.
Json fit_checksums() {
  const CacheScope no_store("");  // fit in-process, never read a cache
  Json j = Json::object();
  for (const Op op : paper_ops()) {
    j[op_info(op).name] = Json(hex64(
        fnv1a(Approximator::fit(op, Method::kGqaRm).to_json().dump(-1))));
  }
  return j;
}

TEST(GoldenLogits, ChecksumsMatchUnderEveryBackend) {
  const Json golden = Json::parse(read_file(GQA_GOLDEN_FILE));
  for (const kernel::KernelBackend* backend : kernel::registry()) {
    if (!kernel::backend_available(*backend)) continue;
    const kernel::BackendScope scope(backend->name);
    const Json got = current_checksums();
    for (const char* model : {"segformer", "efficientvit"}) {
      EXPECT_EQ(golden.at(model).as_string(), got.at(model).as_string())
          << model << " logits moved under kernel backend " << backend->name
          << " (regeneration command: see tests/golden_test.cpp)";
    }
  }
}

TEST(GoldenFits, ChecksumsMatch) {
  const Json golden = Json::parse(read_file(GQA_GOLDEN_FILE));
  const Json got = fit_checksums();
  for (const Op op : paper_ops()) {
    const std::string& name = op_info(op).name;
    EXPECT_EQ(golden.at("fits").at(name).as_string(), got.at(name).as_string())
        << name << " GQA-RM fit moved (regeneration command: see "
        << "tests/golden_test.cpp)";
  }
}

// Writes the golden file from the scalar oracle. Disabled so it only runs
// when named explicitly (see the command at the top of this file).
TEST(GoldenLogits, DISABLED_Regenerate) {
  const kernel::BackendScope scope("scalar");
  Json j = current_checksums();
  j["fits"] = fit_checksums();
  j["what"] = Json(
      "FNV-1a 64 (hex) of the int32 logit codes, 4 little-endian bytes "
      "each, of the default SegformerB0Like / EfficientViTB0Like over " +
      std::to_string(kScenes) +
      " seeded 64x64 scenes; `fits`: FNV-1a 64 (hex) of "
      "Approximator::fit(op, kGqaRm).to_json().dump(-1) per paper op; "
      "written by golden_test's DISABLED_Regenerate");
  write_file(GQA_GOLDEN_FILE, j.dump() + "\n");
}

}  // namespace
}  // namespace gqa
