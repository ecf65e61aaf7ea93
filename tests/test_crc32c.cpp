// core::crc32c is a persisted format: the per-unit checksum region, the
// FileBackend journal record CRC and crc32c_nonzero all store its value.
// The suite pins:
//
//   * the RFC 3720 section B.4 known answers and the "123456789" check
//     value;
//   * continuation: crc32c(b, crc32c(a)) == crc32c(a || b) for splits on
//     and around the 3 KiB round of the hardware kernel;
//   * the crc32c_nonzero bias of a zero checksum to 1;
//   * the dispatched path (the SSE4.2 kernel on CPUs that have it) equals
//     the portable slicing-by-8 path at every length 0..12305 from every
//     start offset 0..7, so checksums written by either path verify
//     under the other.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/crc32c.hpp"

namespace {

using pdl::core::crc32c;
using pdl::core::crc32c_nonzero;
using pdl::core::detail::crc32c_portable;

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Deterministic non-repeating test bytes.
std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::uint32_t x = 0x12345678u;
  for (auto& b : v) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return v;
}

/// Expects both paths to give `want` for `data`.
void expect_crc(std::span<const std::uint8_t> data, std::uint32_t want) {
  EXPECT_EQ(crc32c(data), want);
  EXPECT_EQ(crc32c_portable(data), want);
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  std::vector<std::uint8_t> buf(32, 0x00);
  expect_crc(buf, 0x8A9136AAu);

  buf.assign(32, 0xFF);
  expect_crc(buf, 0x62A8AB43u);

  for (std::size_t i = 0; i < 32; ++i) buf[i] = static_cast<std::uint8_t>(i);
  expect_crc(buf, 0x46DD794Eu);

  for (std::size_t i = 0; i < 32; ++i)
    buf[i] = static_cast<std::uint8_t>(31 - i);
  expect_crc(buf, 0x113FDB5Cu);

  const std::vector<std::uint8_t> iscsi_read = {
      0x01, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  expect_crc(iscsi_read, 0xD9963A56u);
}

TEST(Crc32c, CheckValue) {
  expect_crc(bytes_of("123456789"), 0xE3069283u);
  expect_crc({}, 0u);
}

TEST(Crc32c, SplitBufferContinuation) {
  const std::vector<std::uint8_t> data = pattern(3 * 3072 + 17);
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t whole = crc32c(all);
  EXPECT_EQ(whole, crc32c_portable(all));

  for (std::size_t cut : {0, 1, 7, 8, 1023, 1024, 1025, 3071, 3072, 3073,
                          4096, 6144, 6151, 9216, 9233}) {
    const auto a = all.first(cut);
    const auto b = all.subspan(cut);
    EXPECT_EQ(crc32c(b, crc32c(a)), whole) << "cut " << cut;
    EXPECT_EQ(crc32c_portable(b, crc32c_portable(a)), whole) << "cut " << cut;
    // A running checksum started on one path continues on the other.
    EXPECT_EQ(crc32c(b, crc32c_portable(a)), whole) << "cut " << cut;
  }
}

TEST(Crc32c, NonzeroBiasesOnlyZero) {
  // A 4 KiB unit plus the 4-byte suffix that drives its CRC to exactly
  // 0: run the register backwards from the state whose final XOR is 0
  // (one zero bit at a time: the forward step shifts right and folds the
  // reflected polynomial in when the low bit was set).
  std::vector<std::uint8_t> unit = pattern(4096);
  std::uint32_t target = 0xFFFFFFFFu;
  for (int bit = 0; bit < 32; ++bit)
    target = (target & 0x80000000u) ? ((target ^ 0x82F63B78u) << 1) | 1u
                                    : target << 1;
  const std::uint32_t suffix = (crc32c(unit) ^ 0xFFFFFFFFu) ^ target;
  for (int i = 0; i < 4; ++i)
    unit.push_back(static_cast<std::uint8_t>(suffix >> (8 * i)));

  expect_crc(unit, 0u);
  EXPECT_EQ(crc32c_nonzero(unit), 1u);

  unit.back() ^= 0x01;
  ASSERT_NE(crc32c(unit), 0u);
  EXPECT_EQ(crc32c_nonzero(unit), crc32c(unit));
}

TEST(Crc32c, DispatchedMatchesPortableEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 12305;
  constexpr std::size_t kMaxOffset = 7;
  const std::vector<std::uint8_t> data = pattern(kMaxLen + kMaxOffset);
  const std::span<const std::uint8_t> all(data);
  for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const auto s = all.subspan(offset, len);
      const std::uint32_t want = crc32c_portable(s);
      const std::uint32_t got = crc32c(s);
      if (got != want) {
        ADD_FAILURE() << "offset " << offset << " len " << len << ": got "
                      << std::hex << got << " want " << want;
        return;
      }
    }
  }
}

}  // namespace
