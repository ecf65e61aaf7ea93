#include "core/gf8.hpp"

#include <cstring>
#include <stdexcept>

#include "algebra/gf.hpp"
#include "algebra/polynomial.hpp"
#include "core/xor_codec.hpp"

#if defined(__x86_64__)
#include <tmmintrin.h>
#endif

namespace pdl::core::gf8 {

namespace {

/// The log/exp tables, derived from the algebra-layer field so the byte
/// kernels and the mathematical reference cannot drift apart.  Because x
/// is primitive mod 0x11d the generator search finds g = 2 first, so
/// exp_[i] == alpha^i with alpha = 2 -- asserted at construction.
struct Tables {
  std::uint8_t exp[510];  // doubled so exp[log a + log b] needs no mod
  std::uint8_t log[256];
  std::uint8_t inverse[256];  // inverse[0] unused
  /// nib[c][0][x] = c * x and nib[c][1][x] = c * (x << 4) for x < 16:
  /// multiplication is linear over XOR, so c * b is
  /// nib[c][0][b & 15] ^ nib[c][1][b >> 4] -- two 16-entry lookups, the
  /// shape pshufb does sixteen bytes at a time.
  alignas(16) std::uint8_t nib[256][2][16];

  Tables() {
    const algebra::GaloisField field(
        256, algebra::Polynomial(
                 2, std::vector<std::uint32_t>{1, 0, 1, 1, 1, 0, 0, 0, 1}));
    if (field.primitive_element() != kAlpha)
      throw std::logic_error("gf8: generator is not alpha = 2");
    for (std::uint32_t i = 0; i < 255; ++i) {
      const auto e = static_cast<std::uint8_t>(field.exp(i));
      exp[i] = e;
      exp[i + 255] = e;
      log[e] = static_cast<std::uint8_t>(i);
    }
    log[0] = 0;  // never read; mul() guards zero operands
    for (std::uint32_t a = 1; a < 256; ++a)
      inverse[a] = static_cast<std::uint8_t>(
          *field.inverse(static_cast<algebra::Elem>(a)));
    for (std::uint32_t c = 0; c < 256; ++c)
      for (std::uint32_t x = 0; x < 16; ++x) {
        nib[c][0][x] = product(c, x);
        nib[c][1][x] = product(c, x << 4);
      }
  }

  [[nodiscard]] std::uint8_t product(std::uint32_t a,
                                     std::uint32_t b) const noexcept {
    if (a == 0 || b == 0) return 0;
    return exp[static_cast<std::uint32_t>(log[a]) + log[b]];
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

inline void check_same_size(std::size_t dst, std::size_t src,
                            const char* what) {
  if (dst != src)
    throw std::invalid_argument(std::string(what) + ": size mismatch");
}

/// A constant-multiply kernel: dst[i] = c * src[i], XORed into the old
/// dst[i] when `accumulate`.  dst may equal src (mul_in_place runs the
/// kernel with accumulate off over one buffer); partial overlaps are not
/// supported.  c is neither 0 nor 1 -- callers shortcut those.
using Kernel = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t n, std::uint8_t c,
                        bool accumulate) noexcept;

/// Finishes bytes [i, n) through the nibble tables, one byte at a time.
inline void mul_tail(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t i, std::size_t n, std::uint8_t c,
                     bool accumulate) noexcept {
  const auto& nib = tables().nib[c];
  for (; i < n; ++i) {
    const std::uint8_t b = src[i];
    const auto p = static_cast<std::uint8_t>(nib[0][b & 15] ^ nib[1][b >> 4]);
    dst[i] = accumulate ? static_cast<std::uint8_t>(dst[i] ^ p) : p;
  }
}

/// One 16-byte vector register (GCC/Clang vector extension: SSE2 on
/// x86-64, NEON on AArch64, plain words elsewhere), as in
/// core/xor_codec.cpp: GCC at -O3 without -march keeps these in
/// registers, where arrays of std::uint64_t get spilled to the stack on
/// every block.
using Lane = std::uint64_t __attribute__((vector_size(16)));

/// Lanes per 64-byte block of the portable kernel.
constexpr std::size_t kLanes = 4;
constexpr std::size_t kBlock = kLanes * sizeof(Lane);  // 64 bytes

/// x * v for sixteen packed GF(2^8) bytes: shift every byte left one bit
/// (the & low7 keeps bits from crossing byte boundaries), then fold the
/// modulus into every byte whose top bit fell off -- (v >> 7) & ones is
/// exactly those bytes' carry flags, and multiplying by (kModulus & 0xff)
/// broadcasts the reduction constant 0x1d to them.
[[nodiscard]] inline Lane mul2(Lane v) noexcept {
  const Lane low7 = {0x7f7f7f7f7f7f7f7full, 0x7f7f7f7f7f7f7f7full};
  const Lane ones = {0x0101010101010101ull, 0x0101010101010101ull};
  return ((v & low7) << 1) ^ (((v >> 7) & ones) * (kModulus & 0xff));
}

/// The portable kernel: bit-sliced over 64-byte blocks held in four
/// vector lanes, so a constant multiply is at most eight shift/XOR
/// passes with no table in the inner loop.
void mul_portable(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                  std::uint8_t c, bool accumulate) noexcept {
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    Lane cur[kLanes], acc[kLanes] = {};
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::memcpy(&cur[l], src + i + l * sizeof(Lane), sizeof(Lane));
      if (accumulate)
        std::memcpy(&acc[l], dst + i + l * sizeof(Lane), sizeof(Lane));
    }
    for (std::uint32_t bits = c; bits != 0;) {
      if (bits & 1)
        for (std::size_t l = 0; l < kLanes; ++l) acc[l] ^= cur[l];
      bits >>= 1;
      if (bits != 0)
        for (std::size_t l = 0; l < kLanes; ++l) cur[l] = mul2(cur[l]);
    }
    for (std::size_t l = 0; l < kLanes; ++l)
      std::memcpy(dst + i + l * sizeof(Lane), &acc[l], sizeof(Lane));
  }
  mul_tail(dst, src, i, n, c, accumulate);
}

#if defined(__x86_64__)

/// c * v for sixteen bytes: split each byte into its nibbles and look
/// both up in c's nibble tables `lo`/`hi` with pshufb, then XOR the
/// halves.
__attribute__((target("ssse3"))) inline __m128i times_c(
    __m128i v, __m128i lo, __m128i hi) noexcept {
  const __m128i mask = _mm_set1_epi8(0x0f);
  return _mm_xor_si128(
      _mm_shuffle_epi8(lo, _mm_and_si128(v, mask)),
      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask)));
}

/// The SSSE3 kernel.  Four vectors per round keep independent lookups in
/// flight.
__attribute__((target("ssse3"))) void mul_ssse3(std::uint8_t* dst,
                                                const std::uint8_t* src,
                                                std::size_t n, std::uint8_t c,
                                                bool accumulate) noexcept {
  const auto& nib = tables().nib[c];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(nib[0]));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(nib[1]));
  constexpr std::size_t kVec = sizeof(__m128i);
  std::size_t i = 0;
  for (; i + 4 * kVec <= n; i += 4 * kVec) {
    __m128i p[4];
    for (std::size_t l = 0; l < 4; ++l)
      p[l] = times_c(_mm_loadu_si128(
                         reinterpret_cast<const __m128i*>(src + i + l * kVec)),
                     lo, hi);
    for (std::size_t l = 0; l < 4; ++l) {
      auto* out = reinterpret_cast<__m128i*>(dst + i + l * kVec);
      _mm_storeu_si128(
          out, accumulate ? _mm_xor_si128(p[l], _mm_loadu_si128(out)) : p[l]);
    }
  }
  for (; i + kVec <= n; i += kVec) {
    auto* out = reinterpret_cast<__m128i*>(dst + i);
    const __m128i p = times_c(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)), lo, hi);
    _mm_storeu_si128(out,
                     accumulate ? _mm_xor_si128(p, _mm_loadu_si128(out)) : p);
  }
  mul_tail(dst, src, i, n, c, accumulate);
}

#endif  // __x86_64__

[[nodiscard]] Kernel select_kernel() noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("ssse3")) return mul_ssse3;
#endif
  return mul_portable;
}

Kernel dispatched() noexcept {
  static const Kernel kernel = select_kernel();
  return kernel;
}

void mul_xor_into_with(Kernel kernel, std::span<std::uint8_t> dst,
                       std::span<const std::uint8_t> src, std::uint8_t c,
                       const char* what) {
  check_same_size(dst.size(), src.size(), what);
  if (c == 0) return;
  if (c == 1) return xor_into(dst, src);
  kernel(dst.data(), src.data(), dst.size(), c, /*accumulate=*/true);
}

void mul_in_place_with(Kernel kernel, std::span<std::uint8_t> dst,
                       std::uint8_t c) {
  if (c == 0) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  if (c == 1) return;
  kernel(dst.data(), dst.data(), dst.size(), c, /*accumulate=*/false);
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept {
  return tables().product(a, b);
}

std::uint8_t exp_alpha(std::uint32_t i) noexcept {
  return tables().exp[i % 255];
}

std::uint8_t inv(std::uint8_t a) {
  if (a == 0) throw std::invalid_argument("gf8::inv: inverse of zero");
  return tables().inverse[a];
}

void mul_xor_into(std::span<std::uint8_t> dst,
                  std::span<const std::uint8_t> src, std::uint8_t c) {
  mul_xor_into_with(dispatched(), dst, src, c, "gf8::mul_xor_into");
}

void mul_in_place(std::span<std::uint8_t> dst, std::uint8_t c) {
  mul_in_place_with(dispatched(), dst, c);
}

namespace detail {

void mul_xor_into_portable(std::span<std::uint8_t> dst,
                           std::span<const std::uint8_t> src,
                           std::uint8_t c) {
  mul_xor_into_with(mul_portable, dst, src, c, "gf8::mul_xor_into_portable");
}

void mul_in_place_portable(std::span<std::uint8_t> dst, std::uint8_t c) {
  mul_in_place_with(mul_portable, dst, c);
}

void mul_xor_into_scalar(std::span<std::uint8_t> dst,
                         std::span<const std::uint8_t> src, std::uint8_t c) {
  check_same_size(dst.size(), src.size(), "gf8::mul_xor_into_scalar");
  std::uint8_t* d = dst.data();
  const std::uint8_t* s = src.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] ^= mul(c, s[i]);
}

void mul_in_place_scalar(std::span<std::uint8_t> dst, std::uint8_t c) {
  std::uint8_t* d = dst.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] = mul(c, d[i]);
}

}  // namespace detail

}  // namespace pdl::core::gf8
