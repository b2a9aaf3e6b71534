#include "pcss/train/checkpoint.h"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace pcss::train {

namespace {

constexpr char kMagic[8] = {'P', 'C', 'S', 'S', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kVersion = 1;
// Far above any real parameter name; a longer length means the length
// field itself is garbage (truncated or corrupt file).
constexpr std::uint32_t kMaxNameLength = 4096;

void write_blob(std::ofstream& out, const std::string& name, const float* data,
                std::uint64_t count) {
  const auto name_len = static_cast<std::uint32_t>(name.size());
  out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(float)));
}

/// Bounds-checked cursor over the checkpoint bytes. Every read names
/// what it was reading when the file ran out, so a truncated or corrupt
/// checkpoint fails with a diagnosable message instead of feeding
/// garbage lengths into further reads.
class Reader {
 public:
  Reader(const std::string& bytes, const std::string& path) : bytes_(bytes), path_(path) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("load_checkpoint: " + path_ + ": " + what);
  }

  const char* take(std::size_t size, const char* what) {
    if (offset_ + size > bytes_.size()) {
      fail("truncated: unexpected end of file while reading " + std::string(what) +
           " (need " + std::to_string(size) + " bytes at offset " +
           std::to_string(offset_) + ", file has " + std::to_string(bytes_.size()) + ")");
    }
    const char* p = bytes_.data() + offset_;
    offset_ += size;
    return p;
  }

  std::uint32_t u32(const char* what) {
    std::uint32_t value;
    std::memcpy(&value, take(sizeof(value), what), sizeof(value));
    return value;
  }

  std::uint64_t u64(const char* what) {
    std::uint64_t value;
    std::memcpy(&value, take(sizeof(value), what), sizeof(value));
    return value;
  }

  std::size_t remaining() const { return bytes_.size() - offset_; }

 private:
  const std::string& bytes_;
  const std::string& path_;
  std::size_t offset_ = 0;
};

/// Reads and validates one named tensor into `staged`, which is only
/// committed to the model after the whole file has checked out.
void read_blob(Reader& reader, const std::string& expected_name,
               std::uint64_t expected_count, std::vector<float>& staged) {
  const std::uint32_t name_len = reader.u32("a tensor-name length");
  if (name_len > kMaxNameLength) {
    reader.fail("corrupt: implausible tensor-name length " + std::to_string(name_len) +
                " before tensor '" + expected_name + "'");
  }
  const std::string name(reader.take(name_len, "a tensor name"), name_len);
  const std::uint64_t count = reader.u64("a tensor element count");
  if (name != expected_name || count != expected_count) {
    reader.fail("tensor mismatch: expected '" + expected_name + "' (" +
                std::to_string(expected_count) + " elements), found '" + name + "' (" +
                std::to_string(count) + ")");
  }
  staged.resize(static_cast<std::size_t>(count));
  std::memcpy(staged.data(), reader.take(static_cast<std::size_t>(count) * sizeof(float),
                                         ("tensor '" + name + "'").c_str()),
              static_cast<std::size_t>(count) * sizeof(float));
  // A NaN or infinite weight, or a negative batch-norm variance (whose
  // 1/sqrt(var + eps) is NaN in eval mode), would load silently and turn
  // every logit into NaN.
  const bool variance = name.ends_with("running_var");
  for (std::size_t i = 0; i < staged.size(); ++i) {
    const float v = staged[i];
    if (!std::isfinite(v) || (variance && v < 0.0f)) {
      reader.fail("corrupt: tensor '" + name + "' element " + std::to_string(i) + " is " +
                  (std::isfinite(v) ? "a negative variance" : "not finite") + " (" +
                  std::to_string(v) + ")");
    }
  }
}

}  // namespace

void save_checkpoint(pcss::models::SegmentationModel& model, const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  // Write-then-rename: readers (and the run_key weight fingerprint) see
  // either no checkpoint or a complete one — a crash mid-save leaves a
  // .tmp.<pid> sibling, never a torn file that loads as garbage.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("save_checkpoint: cannot open " + tmp);
    out.write(kMagic, sizeof(kMagic));
    out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));

    auto params = model.named_params();
    auto buffers = model.named_buffers();
    const auto np = static_cast<std::uint64_t>(params.size());
    const auto nb = static_cast<std::uint64_t>(buffers.size());
    out.write(reinterpret_cast<const char*>(&np), sizeof(np));
    for (auto& p : params) {
      write_blob(out, p.name, p.tensor.data(), static_cast<std::uint64_t>(p.tensor.numel()));
    }
    out.write(reinterpret_cast<const char*>(&nb), sizeof(nb));
    for (auto& b : buffers) {
      write_blob(out, b.name, b.values->data(), static_cast<std::uint64_t>(b.values->size()));
    }
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("save_checkpoint: write failure for " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code remove_ec;
    std::filesystem::remove(tmp, remove_ec);
    throw std::runtime_error("save_checkpoint: cannot rename " + tmp + " to " + path +
                             ": " + ec.message());
  }
}

void load_checkpoint(pcss::models::SegmentationModel& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  if (in.bad()) throw std::runtime_error("load_checkpoint: read error on " + path);

  Reader reader(bytes, path);
  if (std::memcmp(reader.take(sizeof(kMagic), "the file magic"), kMagic, sizeof(kMagic)) !=
      0) {
    reader.fail("not a PCSS checkpoint (bad magic)");
  }
  const std::uint32_t version = reader.u32("the format version");
  if (version != kVersion) {
    reader.fail("unsupported checkpoint version " + std::to_string(version) +
                " (this build reads version " + std::to_string(kVersion) + ")");
  }

  auto params = model.named_params();
  auto buffers = model.named_buffers();

  // Stage everything first: the model is mutated only after the entire
  // file has been read and validated, so a truncated or corrupt
  // checkpoint can never leave a partially loaded model behind.
  const std::uint64_t np = reader.u64("the parameter count");
  if (np != params.size()) {
    reader.fail("parameter count mismatch: checkpoint has " + std::to_string(np) +
                ", model expects " + std::to_string(params.size()));
  }
  std::vector<std::vector<float>> staged_params(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    read_blob(reader, params[i].name, static_cast<std::uint64_t>(params[i].tensor.numel()),
              staged_params[i]);
  }
  const std::uint64_t nb = reader.u64("the buffer count");
  if (nb != buffers.size()) {
    reader.fail("buffer count mismatch: checkpoint has " + std::to_string(nb) +
                ", model expects " + std::to_string(buffers.size()));
  }
  std::vector<std::vector<float>> staged_buffers(buffers.size());
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    read_blob(reader, buffers[i].name, static_cast<std::uint64_t>(buffers[i].values->size()),
              staged_buffers[i]);
  }
  if (reader.remaining() != 0) {
    reader.fail("corrupt: " + std::to_string(reader.remaining()) +
                " trailing bytes after the last tensor");
  }

  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i].tensor.data(), staged_params[i].data(),
                staged_params[i].size() * sizeof(float));
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    std::memcpy(buffers[i].values->data(), staged_buffers[i].data(),
                staged_buffers[i].size() * sizeof(float));
  }
}

bool checkpoint_exists(const std::string& path) {
  return std::filesystem::exists(path);
}

}  // namespace pcss::train
