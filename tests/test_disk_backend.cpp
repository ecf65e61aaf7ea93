// pdl::io::DiskBackend contract tests: range/geometry checks and
// discard/view semantics on MemoryBackend; persistence (write -> close ->
// reopen -> byte-identical), geometry-mismatch refusal, and degraded-
// read/rebuild round-trips across reopen on FileBackend; the FileBackend
// write-ahead journal (commit, replay, torn-record discard, slot reuse
// under concurrency) and multi-piece discard; determinism,
// typed-kIoError surfacing through StripeStore, and bit-rot accounting on
// FaultInjectionBackend.

#include "io/disk_backend.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "api/array.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"

namespace pdl::io {
namespace {

std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("pdl_backend_test_" +
       std::to_string(static_cast<unsigned long>(::getpid()))) /
      tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::uint8_t> pattern(std::size_t size, std::uint8_t base) {
  std::vector<std::uint8_t> bytes(size);
  std::iota(bytes.begin(), bytes.end(), base);
  return bytes;
}

// ----------------------------------------------------------------- memory

TEST(MemoryBackend, RoundTripAndViews) {
  MemoryBackend backend;
  ASSERT_TRUE(backend.open({.num_disks = 3, .disk_bytes = 256}).ok());
  EXPECT_EQ(backend.name(), "memory");

  const auto data = pattern(64, 1);
  ASSERT_TRUE(backend.write(1, 100, data).ok());
  std::vector<std::uint8_t> out(64);
  ASSERT_TRUE(backend.read(1, 100, out).ok());
  EXPECT_EQ(out, data);

  // The zero-copy view sees the same bytes and the same edits.
  const auto view = backend.memory_view(1);
  ASSERT_EQ(view.size(), 256u);
  EXPECT_EQ(0, std::memcmp(view.data() + 100, data.data(), data.size()));
  view[100] ^= 0xFF;
  ASSERT_TRUE(backend.read(1, 100, out).ok());
  EXPECT_EQ(out[0], static_cast<std::uint8_t>(data[0] ^ 0xFF));

  ASSERT_TRUE(backend.sync(1).ok());
  ASSERT_TRUE(backend.discard(1, 0xAB).ok());
  ASSERT_TRUE(backend.read(1, 0, out).ok());
  for (const auto b : out) EXPECT_EQ(b, 0xAB);
  // Other disks untouched by the discard.
  ASSERT_TRUE(backend.read(0, 0, out).ok());
  for (const auto b : out) EXPECT_EQ(b, 0);
}

TEST(MemoryBackend, RangeChecksAreTyped) {
  MemoryBackend backend;
  ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 128}).ok());
  std::vector<std::uint8_t> buf(64);

  EXPECT_EQ(backend.read(2, 0, buf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.write(0, 65, buf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.read(0, 128, buf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.sync(9).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.discard(9, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(backend.read(0, 64, buf).ok());  // exactly at the end is fine
  EXPECT_TRUE(backend.memory_view(5).empty());
}

// ------------------------------------------------------------------- file

TEST(FileBackend, PersistsAcrossCloseAndReopen) {
  const auto dir = fresh_dir("persist");
  const auto data = pattern(128, 7);
  {
    FileBackend backend({.directory = dir.string()});
    ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 512}).ok());
    EXPECT_EQ(backend.name(), "file");
    EXPECT_TRUE(backend.memory_view(0).empty());  // no zero-copy for files
    ASSERT_TRUE(backend.write(1, 300, data).ok());
    ASSERT_TRUE(backend.sync(1).ok());
  }  // closed
  {
    FileBackend backend({.directory = dir.string()});
    ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 512}).ok());
    std::vector<std::uint8_t> out(128);
    ASSERT_TRUE(backend.read(1, 300, out).ok());
    EXPECT_EQ(out, data);
    // Fresh regions of a reopened image still read as zeros.
    ASSERT_TRUE(backend.read(0, 0, out).ok());
    for (const auto b : out) EXPECT_EQ(b, 0);
  }
  std::filesystem::remove_all(dir);
}

TEST(FileBackend, RefusesGeometryMismatchOnReopen) {
  const auto dir = fresh_dir("mismatch");
  {
    FileBackend backend({.directory = dir.string()});
    ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 512}).ok());
  }
  {
    // Different disk_bytes: refused.
    FileBackend backend({.directory = dir.string()});
    const Status opened = backend.open({.num_disks = 2, .disk_bytes = 1024});
    EXPECT_EQ(opened.code(), StatusCode::kFailedPrecondition);
  }
  {
    // Same disk_bytes but different disk count: image sizes alone could
    // not catch this (O_CREAT would add fresh zero disks); the geometry
    // manifest must.
    FileBackend backend({.directory = dir.string()});
    const Status opened = backend.open({.num_disks = 3, .disk_bytes = 512});
    EXPECT_EQ(opened.code(), StatusCode::kFailedPrecondition);
  }
  {
    // The matching geometry still reopens fine.
    FileBackend backend({.directory = dir.string()});
    EXPECT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 512}).ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(FileBackend, DiscardFillsWholeImage) {
  const auto dir = fresh_dir("discard");
  FileBackend backend({.directory = dir.string()});
  ASSERT_TRUE(backend.open({.num_disks = 1, .disk_bytes = 3000}).ok());
  ASSERT_TRUE(backend.write(0, 0, pattern(256, 3)).ok());
  ASSERT_TRUE(backend.discard(0, 0xDD).ok());
  std::vector<std::uint8_t> out(3000);
  ASSERT_TRUE(backend.read(0, 0, out).ok());
  for (const auto b : out) ASSERT_EQ(b, 0xDD);
  std::filesystem::remove_all(dir);
}

/// An image of three pages plus a partial one: buffered, the fill goes out
/// in page-sized pieces and ends with a short tail; with direct I/O
/// requested, the misaligned tail downgrades the backend midway.  Either
/// way every byte, the tail included, holds the fill.
TEST(FileBackend, DiscardFillsMultiPageImageWithTail) {
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t disk_bytes = 3 * page + 100;
  for (const bool direct : {false, true}) {
    SCOPED_TRACE(direct ? "direct_io requested" : "buffered");
    const auto dir = fresh_dir(direct ? "discard_tail_direct" : "discard_tail");
    FileBackend backend({.directory = dir.string(), .direct_io = direct});
    ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = disk_bytes}).ok());
    // Aligned writes, so requested direct I/O stays engaged (where the
    // filesystem allows it) until the discard itself.
    const auto data = pattern(static_cast<std::size_t>(3 * page), 5);
    ASSERT_TRUE(backend.write(0, 0, data).ok());
    ASSERT_TRUE(backend.write(1, 0, data).ok());
    ASSERT_TRUE(backend.discard(0, 0xC3).ok());
    EXPECT_FALSE(backend.direct_io_active());  // tail is not 4096-aligned
    std::vector<std::uint8_t> out(static_cast<std::size_t>(disk_bytes));
    ASSERT_TRUE(backend.read(0, 0, out).ok());
    for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], 0xC3) << i;
    // The other disk is untouched: its data, then the zero tail.
    auto want = data;
    want.resize(out.size(), 0);
    ASSERT_TRUE(backend.read(1, 0, out).ok());
    EXPECT_EQ(out, want);
    EXPECT_EQ(std::filesystem::file_size(dir / "disk-0000.img"), disk_bytes);
    std::filesystem::remove_all(dir);
  }
}

// ----------------------------------------------------------- file journal

constexpr BackendGeometry kJournalGeometry{.num_disks = 3, .disk_bytes = 8192};

/// A two-write batch (data unit on disk 0, its parity on disk 2), the
/// shape of an XOR RMW.
std::vector<IoRequest> journal_batch(std::span<const std::uint8_t> data,
                                     std::span<const std::uint8_t> parity) {
  return {IoRequest::write_of(IoClass::kForegroundWrite, 0, 1024, data),
          IoRequest::write_of(IoClass::kForegroundWrite, 2, 4096, parity)};
}

void expect_range(FileBackend& backend, DiskId disk, std::uint64_t offset,
                  const std::vector<std::uint8_t>& want) {
  std::vector<std::uint8_t> out(want.size());
  ASSERT_TRUE(backend.read(disk, offset, out).ok());
  EXPECT_EQ(out, want) << "disk " << disk << " offset " << offset;
}

TEST(FileBackendJournal, CommittedRecordIsNotReplayed) {
  const auto dir = fresh_dir("journal_commit");
  const auto data = pattern(512, 11);
  const auto parity = pattern(512, 97);
  {
    FileBackend backend({.directory = dir.string()});
    ASSERT_TRUE(backend.open(kJournalGeometry).ok());
    ASSERT_TRUE(backend.journaled());
    const auto batch = journal_batch(data, parity);
    const auto token = backend.journal_begin(batch);
    ASSERT_TRUE(token.ok()) << token.status().to_string();
    for (const IoRequest& r : batch)
      ASSERT_TRUE(backend.write(r.disk, r.offset, r.write_buf).ok());
    ASSERT_TRUE(backend.journal_commit(*token).ok());
    const FileJournalStats stats = backend.journal_stats();
    EXPECT_EQ(stats.records, 1u);
    EXPECT_EQ(stats.commits, 1u);
    // A retired token cannot be committed twice.
    EXPECT_EQ(backend.journal_commit(*token).code(),
              StatusCode::kFailedPrecondition);
  }
  FileBackend backend({.directory = dir.string()});
  ASSERT_TRUE(backend.open(kJournalGeometry).ok());
  EXPECT_EQ(backend.journal_stats().replayed, 0u);
  EXPECT_EQ(backend.journal_stats().discarded, 0u);
  expect_range(backend, 0, 1024, data);
  expect_range(backend, 2, 4096, parity);
  std::filesystem::remove_all(dir);
}

TEST(FileBackendJournal, UncommittedRecordIsReplayedAtReopen) {
  const auto dir = fresh_dir("journal_replay");
  const auto data = pattern(512, 23);
  const auto parity = pattern(512, 61);
  {
    // The process "crashes" between journal_begin and the in-place
    // writes: none of them landed, and the record is never retired.
    FileBackend backend({.directory = dir.string()});
    ASSERT_TRUE(backend.open(kJournalGeometry).ok());
    ASSERT_TRUE(backend.journal_begin(journal_batch(data, parity)).ok());
  }
  {
    FileBackend backend({.directory = dir.string()});
    ASSERT_TRUE(backend.open(kJournalGeometry).ok());
    EXPECT_EQ(backend.journal_stats().replayed, 1u);
    EXPECT_EQ(backend.journal_stats().discarded, 0u);
    expect_range(backend, 0, 1024, data);
    expect_range(backend, 2, 4096, parity);
    expect_range(backend, 1, 0, std::vector<std::uint8_t>(8192, 0));
  }
  // Replay retired the record: a second reopen finds nothing to do.
  FileBackend backend({.directory = dir.string()});
  ASSERT_TRUE(backend.open(kJournalGeometry).ok());
  EXPECT_EQ(backend.journal_stats().replayed, 0u);
  expect_range(backend, 0, 1024, data);
  std::filesystem::remove_all(dir);
}

TEST(FileBackendJournal, CorruptRecordIsDiscardedAtReopen) {
  const auto dir = fresh_dir("journal_corrupt");
  const auto data = pattern(512, 41);
  const auto parity = pattern(512, 3);
  {
    FileBackend backend({.directory = dir.string()});
    ASSERT_TRUE(backend.open(kJournalGeometry).ok());
    ASSERT_TRUE(backend.journal_begin(journal_batch(data, parity)).ok());
  }
  {
    // Flip one payload byte of the first slot's record: 32-byte header,
    // two 16-byte entries, then the payloads.
    std::fstream journal(dir / "journal.bin",
                         std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(journal.is_open());
    constexpr std::streamoff kPayloadByte = 32 + 2 * 16 + 100;
    journal.seekg(kPayloadByte);
    const int byte = journal.get();
    ASSERT_NE(byte, std::char_traits<char>::eof());
    journal.seekp(kPayloadByte);
    journal.put(static_cast<char>(byte ^ 0x01));
    ASSERT_TRUE(journal.good());
  }
  FileBackend backend({.directory = dir.string()});
  ASSERT_TRUE(backend.open(kJournalGeometry).ok());
  EXPECT_EQ(backend.journal_stats().replayed, 0u);
  EXPECT_EQ(backend.journal_stats().discarded, 1u);
  const std::vector<std::uint8_t> zeros(8192, 0);
  for (DiskId disk = 0; disk < kJournalGeometry.num_disks; ++disk)
    expect_range(backend, disk, 0, zeros);
  std::filesystem::remove_all(dir);
}

/// 4 threads x 20 begin/commit pairs is 80 records through 32 slots, so
/// slots are retired and reused while other threads hold theirs.
TEST(FileBackendJournal, ConcurrentRecordsReuseSlots) {
  constexpr int kThreads = 4;
  constexpr int kRecordsPerThread = 20;
  const auto dir = fresh_dir("journal_concurrent");
  {
    FileBackend backend({.directory = dir.string()});
    ASSERT_TRUE(backend.open(kJournalGeometry).ok());
    std::vector<int> completed(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&backend, &completed, t] {
        // Each thread owns a 1 KiB range on disk 0 and on disk 2.
        const std::uint64_t offset = static_cast<std::uint64_t>(t) * 1024;
        for (int i = 0; i < kRecordsPerThread; ++i) {
          const auto data = pattern(1024, static_cast<std::uint8_t>(t + i));
          const std::vector<IoRequest> batch = {
              IoRequest::write_of(IoClass::kForegroundWrite, 0, offset, data),
              IoRequest::write_of(IoClass::kForegroundWrite, 2, offset, data)};
          const auto token = backend.journal_begin(batch);
          if (!token.ok()) return;
          for (const IoRequest& r : batch)
            if (!backend.write(r.disk, r.offset, r.write_buf).ok()) return;
          if (!backend.journal_commit(*token).ok()) return;
          ++completed[static_cast<std::size_t>(t)];
        }
      });
    for (auto& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(completed[static_cast<std::size_t>(t)], kRecordsPerThread)
          << "thread " << t;
    const FileJournalStats stats = backend.journal_stats();
    EXPECT_EQ(stats.records, std::uint64_t{kThreads * kRecordsPerThread});
    EXPECT_EQ(stats.commits, std::uint64_t{kThreads * kRecordsPerThread});
  }
  FileBackend backend({.directory = dir.string()});
  ASSERT_TRUE(backend.open(kJournalGeometry).ok());
  EXPECT_EQ(backend.journal_stats().replayed, 0u);
  EXPECT_EQ(backend.journal_stats().discarded, 0u);
  for (int t = 0; t < kThreads; ++t) {
    const auto last =
        pattern(1024, static_cast<std::uint8_t>(t + kRecordsPerThread - 1));
    expect_range(backend, 0, static_cast<std::uint64_t>(t) * 1024, last);
    expect_range(backend, 2, static_cast<std::uint64_t>(t) * 1024, last);
  }
  std::filesystem::remove_all(dir);
}

/// The satellite acceptance scenario: write through a file-backed store,
/// tear the store down, re-create it over the same directory, then fail a
/// disk -- degraded reads and a rebuild must reproduce the first
/// process's bytes exactly.
TEST(FileBackend, StoreReopenDegradedReadAndRebuildRoundTrip) {
  const auto dir = fresh_dir("store_roundtrip");
  constexpr std::uint64_t kSeed = 0xFADE;
  constexpr DiskId kVictim = 4;
  const StripeStoreOptions store_options{.unit_bytes = 96, .iterations = 2};

  auto make_array = [] {
    return api::Array::create({.num_disks = 17, .stripe_size = 5});
  };

  std::uint64_t victim_checksum = 0;
  std::uint64_t num_units = 0;
  {
    auto array = make_array();
    ASSERT_TRUE(array.ok());
    auto store = StripeStore::create(
        std::move(array).value(), store_options,
        make_file_backend({.directory = dir.string()}));
    ASSERT_TRUE(store.ok()) << store.status().to_string();
    num_units = store->num_logical_units();
    ASSERT_TRUE(fill_canonical(*store, 0, num_units, kSeed).ok());
    ASSERT_TRUE(store->sync().ok());
    const auto sum = store->checksum_disk(kVictim);
    ASSERT_TRUE(sum.ok());
    victim_checksum = *sum;
  }  // first store (and its descriptors) gone

  auto array = make_array();
  ASSERT_TRUE(array.ok());
  auto store = StripeStore::create(
      std::move(array).value(), store_options,
      make_file_backend({.directory = dir.string()}));
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  ASSERT_EQ(store->num_logical_units(), num_units);

  // The reopened image serves the first process's bytes.
  std::vector<std::uint8_t> unit(store->unit_bytes());
  std::vector<std::uint8_t> expected(store->unit_bytes());
  for (std::uint64_t logical = 0; logical < num_units; ++logical) {
    ASSERT_TRUE(store->read(logical, unit).ok()) << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << logical;
  }

  // Degraded reads across the reopen: parity persisted with the data.
  ASSERT_TRUE(store->fail_disk(kVictim).ok());
  std::uint64_t degraded = 0;
  for (std::uint64_t logical = 0; logical < num_units; ++logical) {
    ReadReceipt receipt;
    ASSERT_TRUE(store->read(logical, unit, &receipt).ok()) << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << logical;
    if (receipt.kind == api::ReadPlan::Kind::kDegraded) ++degraded;
  }
  EXPECT_GT(degraded, 0u);

  // Rebuild restores the victim image checksum-identically.
  ASSERT_TRUE(store->replace_disk(kVictim).ok());
  const auto outcome = store->rebuild();
  ASSERT_TRUE(outcome.ok());
  const auto rebuilt = store->checksum_disk(kVictim);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, victim_checksum);
  EXPECT_TRUE(store->array().healthy());

  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------- fault injection

TEST(FaultInjectionBackend, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    FaultInjectionBackend backend(make_memory_backend(),
                                  {.seed = seed,
                                   .read_error_probability = 0.3,
                                   .bit_rot_probability = 0.2});
    EXPECT_TRUE(backend.open({.num_disks = 1, .disk_bytes = 4096}).ok());
    std::vector<std::uint8_t> buf(64);
    std::vector<StatusCode> codes;
    for (int i = 0; i < 200; ++i)
      codes.push_back(backend.read(0, 0, buf).code());
    const auto stats = backend.stats();
    EXPECT_EQ(stats.reads, 200u);
    EXPECT_GT(stats.injected_read_errors, 0u);
    EXPECT_GT(stats.injected_bit_flips, 0u);
    return std::make_pair(codes, stats.injected_read_errors);
  };
  const auto a = run(11);
  const auto b = run(11);
  const auto c = run(12);
  EXPECT_EQ(a.first, b.first);    // same seed, same fault sequence
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first, c.first);    // different seed, different sequence
}

TEST(FaultInjectionBackend, BitRotCorruptsPayloadNotSubstrate) {
  FaultInjectionBackend backend(make_memory_backend(),
                                {.seed = 5, .bit_rot_probability = 1.0});
  ASSERT_TRUE(backend.open({.num_disks = 1, .disk_bytes = 256}).ok());
  const auto data = pattern(32, 9);
  ASSERT_TRUE(backend.write(0, 0, data).ok());

  std::vector<std::uint8_t> out(32);
  ASSERT_TRUE(backend.read(0, 0, out).ok());
  // Exactly one bit differs per read...
  int diff_bits = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    diff_bits += __builtin_popcount(out[i] ^ data[i]);
  EXPECT_EQ(diff_bits, 1);
  EXPECT_EQ(backend.stats().injected_bit_flips, 1u);
}

TEST(FaultInjectionBackend, InjectedEioSurfacesAsTypedStatusFromStore) {
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  auto flaky = std::make_unique<FaultInjectionBackend>(
      make_memory_backend(),
      FaultInjectionOptions{.seed = 3, .read_error_probability = 1.0});
  FaultInjectionBackend* flaky_raw = flaky.get();
  auto store = StripeStore::create(std::move(array).value(),
                                   {.unit_bytes = 64, .iterations = 1},
                                   std::move(flaky));
  ASSERT_TRUE(store.ok()) << store.status().to_string();

  // Every read fails with kIoError -- the typed code, not a crash, not
  // garbage bytes.
  std::vector<std::uint8_t> unit(store->unit_bytes());
  const Status read = store->read(0, unit);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
  EXPECT_GT(flaky_raw->stats().injected_read_errors, 0u);

  // Writes read old data/parity first (RMW), so they fail typed too.
  const Status written = store->write(0, unit);
  EXPECT_EQ(written.code(), StatusCode::kIoError);
}

/// Decorator failing exactly the Nth write() after arm(): lets a test
/// target one specific physical write inside a store operation.
class FailNthWriteBackend final : public DiskBackend {
 public:
  explicit FailNthWriteBackend(std::unique_ptr<DiskBackend> inner)
      : inner_(std::move(inner)) {}

  void arm(int fail_on) { fail_on_ = fail_on; count_ = 0; }

  Status open(const BackendGeometry& g) override { return inner_->open(g); }
  Status read(DiskId d, std::uint64_t off,
              std::span<std::uint8_t> out) override {
    return inner_->read(d, off, out);
  }
  Status write(DiskId d, std::uint64_t off,
               std::span<const std::uint8_t> data) override {
    if (fail_on_ > 0 && ++count_ == fail_on_) {
      fail_on_ = 0;
      return Status::io_error("scripted write failure");
    }
    return inner_->write(d, off, data);
  }
  Status sync(DiskId d) override { return inner_->sync(d); }
  Status discard(DiskId d, std::uint8_t fill) override {
    return inner_->discard(d, fill);
  }
  std::string_view name() const noexcept override { return "fail-nth"; }
  // memory_view stays empty (base default): the store must use the
  // backend read/write path, where the rollback logic lives.

 private:
  std::unique_ptr<DiskBackend> inner_;
  int fail_on_ = 0;
  int count_ = 0;
};

// A torn read-modify-write (new parity landed, data write failed) must
// roll the parity back: the stripe stays consistent with the OLD data,
// and a degraded read after a subsequent disk failure serves the old
// bytes -- not garbage.
TEST(DiskBackendStore, TornRmwRollsBackParity) {
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  auto failer =
      std::make_unique<FailNthWriteBackend>(make_memory_backend());
  FailNthWriteBackend* failer_raw = failer.get();
  auto store = StripeStore::create(std::move(array).value(),
                                   {.unit_bytes = 64, .iterations = 1},
                                   std::move(failer));
  ASSERT_TRUE(store.ok()) << store.status().to_string();

  const std::uint64_t logical = 0;
  std::vector<std::uint8_t> old_data(store->unit_bytes(), 0x11);
  std::vector<std::uint8_t> new_data(store->unit_bytes(), 0x22);
  WriteReceipt receipt;
  ASSERT_TRUE(store->write(logical, old_data, &receipt).ok());
  ASSERT_EQ(receipt.kind, api::WritePlan::Kind::kReadModifyWrite);
  const DiskId data_disk = receipt.writes[0].disk;

  // The no-view RMW issues two backend writes: parity first, then data.
  // Fail the second -> torn write, rollback path.
  failer_raw->arm(2);
  const Status torn = store->write(logical, new_data);
  EXPECT_EQ(torn.code(), StatusCode::kIoError);

  // The unit still reads back as the old bytes...
  std::vector<std::uint8_t> got(store->unit_bytes());
  ASSERT_TRUE(store->read(logical, got).ok());
  EXPECT_EQ(got, old_data);

  // ...and -- the actual rollback guarantee -- parity agrees with them:
  // losing the data disk reconstructs the OLD bytes from survivors.
  ASSERT_TRUE(store->fail_disk(data_disk).ok());
  ReadReceipt degraded;
  ASSERT_TRUE(store->read(logical, got, &degraded).ok());
  EXPECT_EQ(degraded.kind, api::ReadPlan::Kind::kDegraded);
  EXPECT_EQ(got, old_data);
}

// After the rollback, retrying the same write must succeed and leave
// parity consistent with the NEW bytes.
TEST(DiskBackendStore, RetryAfterTornRmwIsSafe) {
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  auto failer =
      std::make_unique<FailNthWriteBackend>(make_memory_backend());
  FailNthWriteBackend* failer_raw = failer.get();
  auto store = StripeStore::create(std::move(array).value(),
                                   {.unit_bytes = 64, .iterations = 1},
                                   std::move(failer));
  ASSERT_TRUE(store.ok());

  const std::uint64_t logical = 3;
  std::vector<std::uint8_t> old_data(store->unit_bytes(), 0x33);
  std::vector<std::uint8_t> new_data(store->unit_bytes(), 0x44);
  WriteReceipt receipt;
  ASSERT_TRUE(store->write(logical, old_data, &receipt).ok());
  const DiskId data_disk = receipt.writes[0].disk;

  failer_raw->arm(2);
  ASSERT_EQ(store->write(logical, new_data).code(), StatusCode::kIoError);
  ASSERT_TRUE(store->write(logical, new_data).ok());  // the documented retry

  ASSERT_TRUE(store->fail_disk(data_disk).ok());
  std::vector<std::uint8_t> got(store->unit_bytes());
  ReadReceipt degraded;
  ASSERT_TRUE(store->read(logical, got, &degraded).ok());
  EXPECT_EQ(degraded.kind, api::ReadPlan::Kind::kDegraded);
  EXPECT_EQ(got, new_data);
}

TEST(FaultInjectionBackend, DecoratorHidesMemoryViews) {
  // If the decorator leaked the inner backend's views, the store would
  // bypass injection entirely.
  FaultInjectionBackend backend(make_memory_backend(), {.seed = 1});
  ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 64}).ok());
  EXPECT_TRUE(backend.memory_view(0).empty());
}

// StripeStore::create must pass backend open failures through typed.
TEST(DiskBackendStore, OpenFailurePropagates) {
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  // A file backend pointed at an unusable path (a path *under* an
  // existing file cannot be created as a directory).
  const auto dir = fresh_dir("open_fail");
  std::filesystem::create_directories(dir);
  const auto blocker = dir / "blocker";
  {
    std::vector<std::uint8_t> byte{0};
    FILE* f = std::fopen(blocker.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(byte.data(), 1, 1, f);
    std::fclose(f);
  }
  auto store = StripeStore::create(
      std::move(array).value(), {.unit_bytes = 64},
      make_file_backend({.directory = (blocker / "nested").string()}));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIoError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pdl::io
