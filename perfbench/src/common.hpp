#pragma once
// Shared helpers of the benchmark program: clock, seeded generators,
// canonical content, nearest-rank quantiles and the result printer.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// splitmix64: the seed expander behind every generator here.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Small fast PRNG (xorshift64*), seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : s_(mix64(seed) | 1) {}
  std::uint64_t next() noexcept {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545f4914f6cdd1dull;
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

/// Canonical content of (unit, version) under one seed.  A payload is a
/// slice of a seeded random pool, chosen by hashing (unit, version), with
/// the unit and version stamped into its first 16 bytes, so two distinct
/// (unit, version) pairs never share bytes.  Filling and checking cost
/// one memcpy / memcmp.
class Content {
 public:
  Content(std::uint64_t seed, std::uint32_t unit_bytes)
      : seed_(seed), unit_bytes_(unit_bytes),
        pool_(kPoolBytes + unit_bytes) {
    Rng rng(seed ^ 0x636f6e74656e74ull);
    for (std::size_t i = 0; i + 8 <= pool_.size(); i += 8) {
      const std::uint64_t w = rng.next();
      std::memcpy(pool_.data() + i, &w, 8);
    }
  }

  void fill(std::uint64_t unit, std::uint32_t version,
            std::span<std::uint8_t> out) const noexcept {
    std::memcpy(out.data(), slice(unit, version), unit_bytes_);
    stamp(unit, version, out.data());
  }

  [[nodiscard]] bool matches(std::uint64_t unit, std::uint32_t version,
                             std::span<const std::uint8_t> bytes)
      const noexcept {
    std::uint8_t head[16];
    stamp(unit, version, head);
    return bytes.size() == unit_bytes_ &&
           std::memcmp(bytes.data(), head, 16) == 0 &&
           std::memcmp(bytes.data() + 16, slice(unit, version) + 16,
                       unit_bytes_ - 16) == 0;
  }

 private:
  static constexpr std::size_t kPoolBytes = 1 << 20;

  const std::uint8_t* slice(std::uint64_t unit,
                            std::uint32_t version) const noexcept {
    const std::uint64_t h = mix64(seed_ ^ mix64(unit * 0x100000001b3ull +
                                                version));
    return pool_.data() + (h % (kPoolBytes / 64)) * 64;
  }
  static void stamp(std::uint64_t unit, std::uint32_t version,
                    std::uint8_t* out) noexcept {
    const std::uint64_t v = version;
    std::memcpy(out, &unit, 8);
    std::memcpy(out + 8, &v, 8);
  }

  std::uint64_t seed_;
  std::uint32_t unit_bytes_;
  std::vector<std::uint8_t> pool_;
};

/// Zipfian ranks over [0, n) with skew theta (the YCSB generator: rank 0
/// is the hottest).
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    for (std::uint64_t i = 1; i <= n; ++i)
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  std::uint64_t next(Rng& rng) const noexcept {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1 % n_;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// value with at least q of the sample at or below it.  0 when empty.
inline std::uint64_t nearest_rank(std::span<const std::uint64_t> sorted,
                                  double q) noexcept {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return sorted[std::min(r, sorted.size()) - 1];
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples above its rank in a sample of size n ("" when even p50 has
/// fewer).
inline const char* highest_supported_percentile(std::uint64_t n) noexcept {
  struct Level {
    double q;
    const char* name;
  };
  static constexpr Level kLevels[] = {{0.9999, "p99.99"}, {0.999, "p99.9"},
                                      {0.99, "p99"},      {0.9, "p90"},
                                      {0.5, "p50"}};
  for (const Level& l : kLevels) {
    const double beyond =
        static_cast<double>(n) -
        std::ceil(l.q * static_cast<double>(n));
    if (beyond >= 10.0) return l.name;
  }
  return "";
}

/// One named metric value with its unit, printed in the result object.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The result line: one JSON object with correct/attempted/failed/metrics.
inline std::string result_json(bool correct, std::uint64_t attempted,
                               std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, metric] : metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
