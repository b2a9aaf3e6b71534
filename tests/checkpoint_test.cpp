// Checkpoint robustness: truncated, corrupt, and oversized files must
// fail with a clear exception naming the path and the malformed element,
// and a failed load must leave the target model untouched (no partial
// loading).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pcss/models/resgcn.h"
#include "pcss/train/checkpoint.h"
#include "temp_dir.h"

namespace {

using pcss::tensor::Rng;

std::unique_ptr<pcss::models::ResGCNSeg> tiny_model(std::uint64_t init_seed) {
  pcss::models::ResGCNConfig config;
  config.num_classes = 13;
  config.channels = 8;
  config.blocks = 1;
  Rng init(init_seed);
  return std::make_unique<pcss::models::ResGCNSeg>(config, init);
}

/// Every parameter and buffer value of the model, in checkpoint order.
std::vector<float> flatten_values(pcss::models::SegmentationModel& model) {
  std::vector<float> out;
  for (auto& p : model.named_params()) {
    const float* data = p.tensor.data();
    out.insert(out.end(), data, data + p.tensor.numel());
  }
  for (auto& b : model.named_buffers()) out.insert(out.end(), b.values->begin(), b.values->end());
  return out;
}

/// Byte offset of element `index` of tensor `name` in checkpoint bytes:
/// magic (8), version (4), then the parameter and the buffer sections,
/// each a u64 count of (u32 name length, name, u64 count, floats) blobs.
std::size_t float_offset(const std::string& bytes, const std::string& name,
                         std::size_t index) {
  std::size_t at = 12;
  for (int section = 0; section < 2; ++section) {
    std::uint64_t blobs = 0;
    std::memcpy(&blobs, bytes.data() + at, sizeof(blobs));
    at += sizeof(blobs);
    for (std::uint64_t b = 0; b < blobs; ++b) {
      std::uint32_t len = 0;
      std::memcpy(&len, bytes.data() + at, sizeof(len));
      const std::string blob_name = bytes.substr(at + sizeof(len), len);
      at += sizeof(len) + len;
      std::uint64_t count = 0;
      std::memcpy(&count, bytes.data() + at, sizeof(count));
      at += sizeof(count);
      if (blob_name == name) return at + index * sizeof(float);
      at += count * sizeof(float);
    }
  }
  ADD_FAILURE() << "no tensor " << name;
  return 0;
}

/// `bytes` with element `index` of tensor `name` replaced by `value`.
std::string with_float(std::string bytes, const std::string& name, std::size_t index,
                       float value) {
  std::memcpy(bytes.data() + float_offset(bytes, name, index), &value, sizeof(value));
  return bytes;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Saves a reference checkpoint once and hands each test a scratch copy.
class CheckpointFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = tiny_model(41);
    path_ = dir_ + "/reference.ckpt";
    pcss::train::save_checkpoint(*source_, path_);
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }

  /// Expects load of `bytes` to throw mentioning `expected_fragment`,
  /// and verifies the target model's parameters were not touched.
  void expect_rejected(const std::string& bytes, const std::string& expected_fragment) {
    const std::string bad_path = dir_ + "/bad.ckpt";
    write_file(bad_path, bytes);
    auto target = tiny_model(52);
    const std::vector<float> before = flatten_values(*target);
    try {
      pcss::train::load_checkpoint(*target, bad_path);
      FAIL() << "load_checkpoint accepted a malformed file";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(bad_path), std::string::npos)
          << "message does not name the path: " << message;
      EXPECT_NE(message.find(expected_fragment), std::string::npos)
          << "message '" << message << "' lacks '" << expected_fragment << "'";
    }
    EXPECT_EQ(flatten_values(*target), before)
        << "failed load must not partially mutate the model";
  }

  pcss::testing::TempDir tmp_;
  std::string dir_ = tmp_.path();
  std::string path_;
  std::string bytes_;
  std::unique_ptr<pcss::models::ResGCNSeg> source_;
};

TEST_F(CheckpointFixture, RoundTripRestoresParameters) {
  auto restored = tiny_model(52);
  ASSERT_NE(flatten_values(*source_), flatten_values(*restored));
  pcss::train::load_checkpoint(*restored, path_);
  EXPECT_EQ(flatten_values(*source_), flatten_values(*restored));
}

TEST_F(CheckpointFixture, TruncatedFileRejectedWithoutPartialLoad) {
  expect_rejected(bytes_.substr(0, bytes_.size() / 2), "truncated");
  // Cut inside the header too: magic survives, the version does not.
  expect_rejected(bytes_.substr(0, 10), "truncated");
}

TEST_F(CheckpointFixture, BadMagicRejected) {
  std::string bad = bytes_;
  bad[0] = 'X';
  expect_rejected(bad, "bad magic");
}

TEST_F(CheckpointFixture, UnsupportedVersionRejected) {
  std::string bad = bytes_;
  bad[8] = 99;  // version field follows the 8-byte magic
  expect_rejected(bad, "unsupported checkpoint version 99");
}

TEST_F(CheckpointFixture, GarbageNameLengthRejected) {
  std::string bad = bytes_;
  // First tensor-name length lives right after magic(8) + version(4) +
  // parameter count(8). 0xFFFFFFFF would ask for a 4 GiB name.
  for (int i = 0; i < 4; ++i) bad[20 + i] = static_cast<char>(0xFF);
  expect_rejected(bad, "implausible tensor-name length");
}

TEST_F(CheckpointFixture, TrailingGarbageRejected) {
  expect_rejected(bytes_ + std::string(4, '\0'), "trailing bytes");
}

TEST_F(CheckpointFixture, NonFiniteValuesAndNegativeVarianceRejected) {
  // One hand-corrupted copy per defect; each names the tensor and leaves
  // the model as it was. The staging pass checks values before any copy.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  expect_rejected(with_float(bytes_, "block0.lin0.weight", 3, nan),
                  "tensor 'block0.lin0.weight' element 3 is not finite");
  expect_rejected(with_float(bytes_, "head.lin1.bias", 0, inf),
                  "tensor 'head.lin1.bias' element 0 is not finite");
  expect_rejected(with_float(bytes_, "stem.bn0.running_mean", 2, -inf),
                  "tensor 'stem.bn0.running_mean' element 2 is not finite");
  expect_rejected(with_float(bytes_, "block0.bn0.running_var", 1, -0.5f),
                  "tensor 'block0.bn0.running_var' element 1 is a negative variance");
  // The checks are the defects' alone: a negative mean and a zero
  // variance are legitimate.
  const std::string fine = with_float(with_float(bytes_, "block0.bn0.running_mean", 0, -3.0f),
                                      "block0.bn0.running_var", 0, 0.0f);
  write_file(dir_ + "/fine.ckpt", fine);
  auto target = tiny_model(52);
  EXPECT_NO_THROW(pcss::train::load_checkpoint(*target, dir_ + "/fine.ckpt"));
}

TEST_F(CheckpointFixture, MissingFileNamesPath) {
  auto target = tiny_model(52);
  try {
    pcss::train::load_checkpoint(*target, dir_ + "/does_not_exist.ckpt");
    FAIL() << "expected missing-file error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("does_not_exist.ckpt"), std::string::npos);
  }
}

}  // namespace
