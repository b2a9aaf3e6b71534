#include "pcss/runner/lease.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "pcss/obs/metrics.h"
#include "pcss/obs/trace.h"
#include "pcss/runner/hash.h"
#include "pcss/runner/json.h"

namespace pcss::runner {

namespace fs = std::filesystem;
namespace obs = pcss::obs;

namespace {

/// Transient errors worth a bounded retry; everything else is reported
/// to the caller as "busy" (leases are advisory, so giving up on one is
/// always safe — the shard just gets computed by someone else or by the
/// final merge pass).
bool transient_errno(int e) { return e == EINTR || e == EAGAIN; }
constexpr int kIoAttempts = 5;

std::string serialize(const LeaseInfo& info) {
  Json j = Json::object();
  j.set("owner", info.owner);
  j.set("pid", static_cast<double>(info.pid));
  // As a string: monotonic ns can exceed a JSON double's 2^53 mantissa
  // on long-lived hosts, and a truncated heartbeat would corrupt
  // staleness math.
  j.set("heartbeat_ns", std::to_string(info.heartbeat_ns));
  j.set("generation", static_cast<double>(info.generation));
  return j.dump() + "\n";
}

/// A JSON number that is an integer in [0, max], exactly; nullopt for
/// fractions, NaN and anything a cast would truncate or overflow.
std::optional<std::int64_t> whole_number(double value, double max) {
  if (!(value >= 0.0 && value <= max) || std::trunc(value) != value) return std::nullopt;
  return static_cast<std::int64_t>(value);
}

std::optional<LeaseInfo> parse_lease(const std::string& text) {
  try {
    const Json j = Json::parse(text);
    LeaseInfo info;
    info.owner = j.at("owner").str();
    // Generations are written as doubles, exact up to 2^53.
    const auto pid = whole_number(j.at("pid").number(), std::numeric_limits<pid_t>::max());
    const auto generation = whole_number(j.at("generation").number(), 0x1p53);
    info.heartbeat_ns = std::stoll(j.at("heartbeat_ns").str());
    // A negative heartbeat is not a monotonic timestamp, and stale()'s
    // `now - heartbeat` would overflow on one.
    if (!pid || !generation || info.heartbeat_ns < 0) return std::nullopt;
    info.pid = *pid;
    info.generation = *generation;
    return info;
  } catch (const std::exception&) {
    return std::nullopt;  // torn or foreign bytes: the caller treats it as stale
  }
}

/// Whole-file read via POSIX so EINTR is retried explicitly; nullopt on
/// any persistent failure (absent, unreadable).
std::optional<std::string> read_file(const std::string& path) {
  int fd = -1;
  for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0 || !transient_errno(errno)) break;
  }
  if (fd < 0) return std::nullopt;
  std::string content;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      content.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (transient_errno(errno)) continue;
    ::close(fd);
    return std::nullopt;
  }
  ::close(fd);
  return content;
}

/// Writes `content` to `path` via an owner-suffixed temporary plus
/// rename (atomic within the directory). Returns false on persistent
/// failure; never throws — lease writes are advisory.
bool write_file_atomic(const std::string& path, const std::string& owner,
                       const std::string& content) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          Fnv64().update(owner).hex();
  int fd = -1;
  for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0 || !transient_errno(errno)) break;
  }
  if (fd < 0) return false;
  std::size_t written = 0;
  while (written < content.size()) {
    const ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n >= 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (transient_errno(errno)) continue;
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
    if (::rename(tmp.c_str(), path.c_str()) == 0) return true;
    if (!transient_errno(errno)) break;
  }
  ::unlink(tmp.c_str());
  return false;
}

/// Same-host liveness probe: true only when the pid conclusively does
/// not exist. EPERM (someone else's live process) and pid reuse both
/// read as "alive", which merely defers the steal to the TTL backstop.
bool pid_is_gone(long long pid) {
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH;
}

}  // namespace

LeaseManager::LeaseManager(std::string dir, std::string owner, std::int64_t ttl_ns)
    : dir_(std::move(dir)), owner_(std::move(owner)), ttl_ns_(ttl_ns) {
  if (ttl_ns_ <= 0) throw std::invalid_argument("LeaseManager: ttl must be positive");
}

bool LeaseManager::stale(const LeaseInfo& info) const {
  const std::int64_t age = obs::trace::now_ns() - info.heartbeat_ns;
  obs::metrics::gauge("runner.lease.heartbeat_age_ms")
      .set(static_cast<double>(age > 0 ? age : 0) / 1e6);
  if (pid_is_gone(info.pid)) return true;
  return age > ttl_ns_;
}

bool LeaseManager::write_lease(const std::string& name, std::int64_t generation) {
  LeaseInfo info;
  info.owner = owner_;
  info.pid = static_cast<long long>(::getpid());
  info.heartbeat_ns = obs::trace::now_ns();
  info.generation = generation;
  return write_file_atomic(dir_ + "/" + name, owner_, serialize(info));
}

LeaseManager::Acquire LeaseManager::try_acquire(const std::string& name) {
  const std::string path = dir_ + "/" + name;
  for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd >= 0) {
      // Won the O_EXCL race: the file exists and is ours. The record is
      // written through the fd directly (not tmp+rename, which would
      // surrender the exclusivity we just won); a reader that sees the
      // partial write treats it as torn = stale, which is correct — a
      // claimant that dies right here *is* stale.
      const LeaseInfo info{owner_, static_cast<long long>(::getpid()),
                           obs::trace::now_ns(), 1};
      const std::string record = serialize(info);
      std::size_t written = 0;
      while (written < record.size()) {
        const ssize_t n = ::write(fd, record.data() + written, record.size() - written);
        if (n >= 0) {
          written += static_cast<std::size_t>(n);
          continue;
        }
        if (!transient_errno(errno)) break;
      }
      ::close(fd);
      obs::metrics::counter("runner.leases.acquired").add(1);
      return Acquire::kAcquired;
    }
    if (errno == EEXIST) break;
    if (errno == ENOENT) {
      std::error_code ec;
      fs::create_directories(dir_, ec);
      continue;
    }
    if (!transient_errno(errno)) return Acquire::kBusy;
  }

  const std::optional<LeaseInfo> holder = peek(name);
  if (holder && !stale(*holder)) return Acquire::kBusy;
  // Stale (or unreadable = torn claim): take over, then read back to
  // learn who actually won a concurrent steal. Both losers and winners
  // renamed complete records into place, so the read-back is decisive.
  const std::int64_t generation = holder ? holder->generation + 1 : 1;
  if (!write_lease(name, generation)) return Acquire::kBusy;
  const std::optional<LeaseInfo> now_holds = peek(name);
  if (!now_holds || now_holds->owner != owner_) return Acquire::kBusy;
  obs::metrics::counter("runner.leases.reclaimed").add(1);
  return Acquire::kStolen;
}

bool LeaseManager::renew(const std::string& name) {
  const std::optional<LeaseInfo> holder = peek(name);
  if (!holder || holder->owner != owner_) return false;
  if (!write_lease(name, holder->generation + 1)) return false;
  const std::optional<LeaseInfo> now_holds = peek(name);
  return now_holds && now_holds->owner == owner_;
}

bool LeaseManager::release(const std::string& name) {
  const std::optional<LeaseInfo> holder = peek(name);
  if (!holder || holder->owner != owner_) return false;
  // A steal landing between the peek and the unlink would remove the
  // thief's lease instead of ours — the window is microseconds and the
  // cost is one duplicated (byte-identical) shard, so no lock is worth
  // closing it.
  const std::string path = dir_ + "/" + name;
  for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
    if (::unlink(path.c_str()) == 0) return true;
    if (!transient_errno(errno)) return false;
  }
  return false;
}

std::optional<LeaseInfo> LeaseManager::peek(const std::string& name) const {
  const std::optional<std::string> content = read_file(dir_ + "/" + name);
  if (!content) return std::nullopt;
  return parse_lease(*content);
}

int LeaseManager::sweep() {
  int removed = 0;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string path = it->path().string();
    const std::optional<std::string> content = read_file(path);
    if (content) {
      const std::optional<LeaseInfo> info = parse_lease(*content);
      if (info && !stale(*info)) continue;  // live holder: keep
    }
    if (::unlink(path.c_str()) == 0) ++removed;
  }
  return removed;
}

ChaosMonkey::ChaosMonkey(double kill_prob, std::uint64_t seed, const std::string& salt)
    : kill_prob_(kill_prob), state_(seed ^ Fnv64().update(salt).value()) {}

ChaosMonkey ChaosMonkey::from_env(const std::string& salt) {
  const char* env = std::getenv("PCSS_CHAOS");
  if (env == nullptr || *env == '\0') return ChaosMonkey();
  const std::string value(env);
  const std::size_t colon = value.find(':');
  char* prob_end = nullptr;
  const double prob = std::strtod(value.c_str(), &prob_end);
  char* seed_end = nullptr;
  const unsigned long long seed =
      colon == std::string::npos
          ? 0
          : std::strtoull(value.c_str() + colon + 1, &seed_end, 10);
  const bool well_formed = colon != std::string::npos &&
                           prob_end == value.c_str() + colon && seed_end != nullptr &&
                           seed_end != value.c_str() + colon + 1 &&  // "0.5:" has no seed
                           *seed_end == '\0' && prob >= 0.0 && prob <= 1.0;
  if (!well_formed) {
    std::fprintf(stderr,
                 "pcss: ignoring malformed PCSS_CHAOS='%s' (want kill_prob:seed, e.g. "
                 "0.2:1234)\n",
                 env);
    return ChaosMonkey();
  }
  return ChaosMonkey(prob, static_cast<std::uint64_t>(seed), salt);
}

bool ChaosMonkey::would_kill() {
  if (kill_prob_ <= 0.0) return false;
  // splitmix64: tiny, seedable, and good enough for a coin flip. Not
  // tensor::Rng because the decision stream must never share state with
  // anything that touches result bytes.
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53 < kill_prob_;
}

void ChaosMonkey::maybe_kill() {
  if (!would_kill()) return;
  std::fprintf(stderr, "[chaos] injected SIGKILL (pid %lld)\n",
               static_cast<long long>(::getpid()));
  std::fflush(stderr);
  ::raise(SIGKILL);
}

}  // namespace pcss::runner
