#include "core/crc32c.hpp"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pdl::core {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

using Table = std::array<std::uint32_t, 256>;

/// The eight slicing tables: [0] is the classic byte-at-a-time table,
/// [j] advances a byte seen j positions earlier.
constexpr std::array<Table, 8> make_slicing_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (std::size_t j = 1; j < 8; ++j)
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
  return t;
}

constexpr std::array<Table, 8> kSlicing = make_slicing_tables();

[[nodiscard]] std::uint64_t load64(const std::uint8_t* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, 8);
  return word;
}

/// Raw register update (no pre/post inversion); the portable path.
[[nodiscard]] std::uint32_t crc32c_sw(std::span<const std::uint8_t> data,
                                      std::uint32_t crc) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  while (n >= 8) {
    // Little-endian layout assumed (the library targets x86-64/aarch64
    // Linux); the bytes fold low-to-high through the eight tables.
    const std::uint64_t word = load64(p) ^ crc;
    crc = kSlicing[7][word & 0xFFu] ^ kSlicing[6][(word >> 8) & 0xFFu] ^
          kSlicing[5][(word >> 16) & 0xFFu] ^
          kSlicing[4][(word >> 24) & 0xFFu] ^
          kSlicing[3][(word >> 32) & 0xFFu] ^
          kSlicing[2][(word >> 40) & 0xFFu] ^
          kSlicing[1][(word >> 48) & 0xFFu] ^ kSlicing[0][(word >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = (crc >> 8) ^ kSlicing[0][(crc ^ *p++) & 0xFFu];
  return crc;
}

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>,
                                 std::uint32_t) noexcept;

#if defined(__x86_64__)

/// Each of the three hardware streams covers one block per round.
constexpr std::size_t kBlock = 1024;

/// The register after `kBlock` zero bytes, as four byte-indexed tables:
/// the update is linear, so shifting a register is the XOR of the
/// shifted images of its four bytes.
constexpr std::array<Table, 4> make_shift_tables() {
  std::array<std::uint32_t, 32> bit_image{};
  for (int b = 0; b < 32; ++b) {
    std::uint32_t crc = 1u << b;
    for (std::size_t i = 0; i < kBlock; ++i)
      crc = (crc >> 8) ^ kSlicing[0][crc & 0xFFu];
    bit_image[b] = crc;
  }
  std::array<Table, 4> t{};
  for (int byte = 0; byte < 4; ++byte)
    for (std::uint32_t v = 0; v < 256; ++v)
      for (int bit = 0; bit < 8; ++bit)
        if (v & (1u << bit)) t[byte][v] ^= bit_image[8 * byte + bit];
  return t;
}

constexpr std::array<Table, 4> kShift = make_shift_tables();

[[nodiscard]] std::uint32_t shift_block(std::uint32_t crc) noexcept {
  return kShift[0][crc & 0xFFu] ^ kShift[1][(crc >> 8) & 0xFFu] ^
         kShift[2][(crc >> 16) & 0xFFu] ^ kShift[3][crc >> 24];
}

/// Three independent crc32 streams over adjacent blocks hide the
/// instruction's 3-cycle latency; the shift tables merge them.
[[nodiscard]] __attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t crc) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  while (n >= 3 * kBlock) {
    std::uint64_t c0 = crc;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      c0 = _mm_crc32_u64(c0, load64(p + i));
      c1 = _mm_crc32_u64(c1, load64(p + kBlock + i));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * kBlock + i));
    }
    crc = shift_block(static_cast<std::uint32_t>(c0)) ^
          static_cast<std::uint32_t>(c1);
    crc = shift_block(crc) ^ static_cast<std::uint32_t>(c2);
    p += 3 * kBlock;
    n -= 3 * kBlock;
  }
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, load64(p));
  crc = static_cast<std::uint32_t>(c);
  while (n-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}

#endif  // __x86_64__

[[nodiscard]] Kernel select_kernel() noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_sw;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  static const Kernel kernel = select_kernel();
  return kernel(data, seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::uint8_t> data,
                              std::uint32_t seed) noexcept {
  return crc32c_sw(data, seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

}  // namespace detail

}  // namespace pdl::core
