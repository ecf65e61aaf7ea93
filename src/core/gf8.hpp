#pragma once
/// @file
/// GF(2^8) byte-field kernels for the Reed-Solomon codec.
///
/// The field is pdl::algebra::GaloisField(256) pinned to the explicit
/// modulus x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the classic Reed-Solomon
/// polynomial.  The choice matters twice over: x itself is primitive mod
/// 0x11d (multiplicative order 255), so the code generator alpha = 2 gives
/// 255 distinct data coefficients alpha^i -- enough for any stripe the
/// online state machine admits (k <= 64) -- and multiplication by 2
/// reduces to one shift plus a conditional XOR of 0x1d, the primitive the
/// portable kernel below is built from.
///
/// Kernels: a product c * b is linear in b over XOR, so it splits into
/// two 16-entry lookups, c * (b & 15) ^ c * (b & 0xf0).  Each constant
/// has its pair of nibble tables (8 KiB for all 256, built once from the
/// same log/exp tables).  On x86-64 CPUs that report SSSE3
/// (`__builtin_cpu_init` + `__builtin_cpu_supports`, resolved once into
/// a function-local static kernel pointer, as core/crc32c.cpp does),
/// `pshufb` performs both lookups for sixteen bytes at a time, so every
/// constant costs the same one pass.  Elsewhere a portable kernel
/// bit-slices the GF(2) carry over 64-byte blocks held in four 16-byte
/// vector lanes -- mul2(v) = ((v & 0x7f..) << 1) ^ (((v >> 7) & 0x01..)
/// * 0x1d), at most eight shift/XOR passes per block.  Both kernels
/// finish a ragged tail through the nibble tables, and c == 0 and c == 1
/// never reach a kernel.  pdl::core::gf8::detail exposes the portable
/// kernel and scalar log/exp-table references; test_codec pins the
/// dispatched, portable and scalar paths byte-equal for every constant on
/// every size/alignment class, and all of them to algebra::GaloisField.

#include <cstdint>
#include <span>

namespace pdl::core::gf8 {

/// The modulus polynomial as a bit mask: x^8 + x^4 + x^3 + x^2 + 1.
inline constexpr std::uint16_t kModulus = 0x11d;

/// The code generator alpha = 2 (== x), primitive mod kModulus.
inline constexpr std::uint8_t kAlpha = 2;

/// a * b in GF(2^8) via the log/exp tables.
[[nodiscard]] std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept;

/// alpha^i (exponent taken mod 255).
[[nodiscard]] std::uint8_t exp_alpha(std::uint32_t i) noexcept;

/// Multiplicative inverse of a nonzero element.
/// @throws std::invalid_argument on 0.
[[nodiscard]] std::uint8_t inv(std::uint8_t a);

/// dst[i] ^= c * src[i] -- the Reed-Solomon multiply-accumulate, the Q
/// parity's RMW hot loop.  c == 0 is a no-op; c == 1 runs as
/// core::xor_into.  Spans must match in size.
/// @throws std::invalid_argument on size mismatch.
void mul_xor_into(std::span<std::uint8_t> dst,
                  std::span<const std::uint8_t> src, std::uint8_t c);

/// dst[i] = c * dst[i] in place (c == 2 is the Horner-encode step).
void mul_in_place(std::span<std::uint8_t> dst, std::uint8_t c);

/// @namespace pdl::core::gf8::detail
/// @brief The portable kernel and the scalar log/exp-table references the
/// dispatched kernel is property-tested against.  Not part of the
/// supported API.
namespace detail {

/// mul_xor_into on the portable bit-sliced kernel, whatever the CPU.
void mul_xor_into_portable(std::span<std::uint8_t> dst,
                           std::span<const std::uint8_t> src, std::uint8_t c);

/// mul_in_place on the portable bit-sliced kernel, whatever the CPU.
void mul_in_place_portable(std::span<std::uint8_t> dst, std::uint8_t c);

/// Scalar byte-loop mul_xor_into (one table multiply per byte).
void mul_xor_into_scalar(std::span<std::uint8_t> dst,
                         std::span<const std::uint8_t> src, std::uint8_t c);

/// Scalar byte-loop mul_in_place.
void mul_in_place_scalar(std::span<std::uint8_t> dst, std::uint8_t c);

}  // namespace detail

}  // namespace pdl::core::gf8
