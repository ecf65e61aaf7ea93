#include "core/xor_codec.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pdl::core {

namespace {

/// One 16-byte vector register (GCC/Clang vector extension: SSE2 on
/// x86-64, NEON on AArch64, plain words elsewhere).  Arrays of
/// std::uint64_t lanes instead get spilled to the stack and reloaded on
/// every block at -O3 without -march, which more than doubled the cost
/// of a 4 KiB XOR.
using Lane = std::uint64_t __attribute__((vector_size(16)));

/// Lanes per 64-byte block.  A block is loaded into four vector lanes
/// via memcpy (no alignment requirement, no aliasing UB), XORed
/// lane-wise in registers and stored back the same way.
constexpr std::size_t kLanes = 4;
constexpr std::size_t kBlock = kLanes * sizeof(Lane);  // 64 bytes

struct Block {
  Lane lane[kLanes];
};

inline Block load(const std::uint8_t* p) {
  Block b;
  for (std::size_t l = 0; l < kLanes; ++l)
    std::memcpy(&b.lane[l], p + l * sizeof(Lane), sizeof(Lane));
  return b;
}

inline void store(std::uint8_t* p, const Block& b) {
  for (std::size_t l = 0; l < kLanes; ++l)
    std::memcpy(p + l * sizeof(Lane), &b.lane[l], sizeof(Lane));
}

inline void fold(Block& acc, const Block& b) {
  for (std::size_t l = 0; l < kLanes; ++l) acc.lane[l] ^= b.lane[l];
}

inline void check_same_size(std::size_t dst, std::size_t src,
                            const char* what) {
  if (dst != src) throw std::invalid_argument(std::string(what) +
                                              ": size mismatch");
}

}  // namespace

void xor_into(std::span<std::uint8_t> dst,
              std::span<const std::uint8_t> src) {
  check_same_size(dst.size(), src.size(), "xor_into");
  std::uint8_t* d = dst.data();
  const std::uint8_t* s = src.data();
  const std::size_t n = dst.size();
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    Block a = load(d + i);
    fold(a, load(s + i));
    store(d + i, a);
  }
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t a, b;
    std::memcpy(&a, d + i, sizeof a);
    std::memcpy(&b, s + i, sizeof b);
    a ^= b;
    std::memcpy(d + i, &a, sizeof a);
  }
  for (; i < n; ++i) d[i] ^= s[i];
}

std::vector<std::uint8_t> xor_parity(
    std::span<const std::vector<std::uint8_t>> units) {
  if (units.empty()) throw std::invalid_argument("xor_parity: no units");
  std::vector<std::uint8_t> parity(units.front().size(), 0);
  for (const auto& unit : units) xor_into(parity, unit);
  return parity;
}

std::vector<std::uint8_t> xor_reconstruct(
    std::span<const std::vector<std::uint8_t>> survivors) {
  return xor_parity(survivors);
}

void xor_parity_into(std::span<std::uint8_t> dst,
                     std::span<const std::span<const std::uint8_t>> units) {
  if (units.empty())
    throw std::invalid_argument("xor_parity_into: no units");
  for (const auto unit : units)
    check_same_size(dst.size(), unit.size(), "xor_parity_into");

  // Single blocked pass: fold every source's block in registers, store
  // dst once.  Reading all sources' block i before storing dst's block i
  // also makes the call safe when dst aliases a unit EXACTLY (blocks are
  // consumed before they are overwritten); partial overlaps at an offset
  // would clobber unread source bytes and are not supported.
  std::uint8_t* d = dst.data();
  const std::size_t n = dst.size();
  const std::size_t fan_in = units.size();
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    Block acc = load(units[0].data() + i);
    for (std::size_t u = 1; u < fan_in; ++u)
      fold(acc, load(units[u].data() + i));
    store(d + i, acc);
  }
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t acc;
    std::memcpy(&acc, units[0].data() + i, sizeof acc);
    for (std::size_t u = 1; u < fan_in; ++u) {
      std::uint64_t b;
      std::memcpy(&b, units[u].data() + i, sizeof b);
      acc ^= b;
    }
    std::memcpy(d + i, &acc, sizeof acc);
  }
  for (; i < n; ++i) {
    std::uint8_t acc = units[0][i];
    for (std::size_t u = 1; u < fan_in; ++u) acc ^= units[u][i];
    d[i] = acc;
  }
}

void xor_reconstruct_into(
    std::span<std::uint8_t> dst,
    std::span<const std::span<const std::uint8_t>> survivors) {
  if (survivors.empty())
    throw std::invalid_argument("xor_reconstruct_into: no survivors");
  xor_parity_into(dst, survivors);
}

namespace detail {

void xor_into_scalar(std::span<std::uint8_t> dst,
                     std::span<const std::uint8_t> src) {
  check_same_size(dst.size(), src.size(), "xor_into_scalar");
  std::uint8_t* d = dst.data();
  const std::uint8_t* s = src.data();
  // Byte-indexed loop, one lane at a time: the PR-4 baseline shape.
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] ^= s[i];
}

void xor_parity_into_scalar(
    std::span<std::uint8_t> dst,
    std::span<const std::span<const std::uint8_t>> units) {
  if (units.empty())
    throw std::invalid_argument("xor_parity_into_scalar: no units");
  for (const auto unit : units)
    check_same_size(dst.size(), unit.size(), "xor_parity_into_scalar");
  std::fill(dst.begin(), dst.end(), std::uint8_t{0});
  for (const auto unit : units) xor_into_scalar(dst, unit);
}

}  // namespace detail

}  // namespace pdl::core
