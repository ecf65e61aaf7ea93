// Differential suite pinning io::StripeStore to api::Array semantics: for
// every ranked construction at (17, 5) (>= 4 apply), {0, 1, 2} failed
// disks, both sparing modes, and BOTH storage backends (zero-copy memory
// and pread/pwrite file images), every StripeStore::read outcome -- the
// served/degraded/unrecoverable resolution AND the exact physical units
// touched -- must match what Array::locate says on an identically-driven
// reference array, and every served byte must equal what was written.
// Write receipts are pinned to Array::plan_write the same way, and the
// dedicated-replacement cases prove rebuild restores checksum-identical
// disk contents through every failure count the codec tolerates (one
// under XOR, two under Reed-Solomon P+Q).  Running the identical matrix
// over both backends and both codecs is what pins the DiskBackend and
// Codec seams: neither substrate nor code may be visible in any byte
// served.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/array.hpp"
#include "engine/planner.hpp"
#include "io/async_backend.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"

namespace pdl::io {
namespace {

constexpr std::uint32_t kV = 17;
constexpr std::uint32_t kK = 5;
constexpr std::uint32_t kUnitBytes = 48;  // odd-ish size, not a power of two
constexpr std::uint32_t kIterations = 2;
constexpr std::uint64_t kSeed = 0xD1FF;

std::vector<core::Construction> applicable_constructions() {
  const auto& planner = engine::ConstructionPlanner::default_planner();
  std::vector<core::Construction> result;
  for (const auto& plan : planner.rank_plans({kV, kK}, {})) {
    if (plan.units_per_disk > 2000) continue;
    result.push_back(plan.construction);
  }
  return result;
}

enum class BackendKind { kMemory, kFile };

struct Case {
  core::Construction construction;
  api::SparingMode sparing;
  std::vector<layout::DiskId> failures;
  BackendKind backend = BackendKind::kMemory;
  core::CodecKind codec = core::CodecKind::kXorParity;
};

/// Scratch directory for one file-backed case, unique per process.
std::filesystem::path case_scratch_dir(const Case& c) {
  return std::filesystem::temp_directory_path() /
         ("pdl_datapath_diff_" +
          std::to_string(static_cast<unsigned long>(::getpid()))) /
         (core::construction_name(c.construction) + "_" +
          std::string(core::codec_kind_name(c.codec)) + "_" +
          (c.sparing == api::SparingMode::kDistributed ? "d" : "n") + "_" +
          std::to_string(c.failures.size()));
}

std::unique_ptr<io::DiskBackend> make_case_backend(const Case& c) {
  if (c.backend == BackendKind::kFile)
    return make_file_backend({.directory = case_scratch_dir(c).string()});
  return make_memory_backend();
}

std::string describe(const Case& c) {
  std::string text = core::construction_name(c.construction);
  text += "/";
  text += core::codec_kind_name(c.codec);
  text += c.sparing == api::SparingMode::kDistributed ? "/distributed"
                                                      : "/dedicated";
  text += c.backend == BackendKind::kFile ? "/file" : "/memory";
  text += " failures={";
  for (const auto d : c.failures) text += std::to_string(d) + ",";
  text += "}";
  return text;
}

/// Every logical read through the store, checked against the reference
/// array's locate: same resolution kind, same touched units, and -- when
/// served -- canonical bytes.
void expect_reads_match(StripeStore& store, const api::Array& reference,
                        const std::string& context) {
  std::vector<std::uint8_t> unit(store.unit_bytes());
  std::vector<std::uint8_t> expected(store.unit_bytes());
  std::array<Physical, 64> survivors;

  for (std::uint64_t logical = 0; logical < store.num_logical_units();
       ++logical) {
    const auto plan = reference.locate(logical, survivors);
    ASSERT_TRUE(plan.ok()) << context;
    ReadReceipt receipt;
    const Status status = store.read(logical, unit, &receipt);

    ASSERT_EQ(receipt.kind, plan->kind)
        << context << " logical " << logical;
    if (plan->kind == api::ReadPlan::Kind::kUnrecoverable) {
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << context << " logical " << logical;
      continue;
    }
    ASSERT_TRUE(status.ok()) << context << " logical " << logical << ": "
                             << status.to_string();
    if (plan->kind == api::ReadPlan::Kind::kDirect) {
      ASSERT_EQ(receipt.num_touched, 1u) << context << " logical " << logical;
      EXPECT_EQ(receipt.touched[0], plan->target)
          << context << " logical " << logical;
    } else {
      ASSERT_EQ(receipt.num_touched, plan->num_survivors)
          << context << " logical " << logical;
      for (std::uint32_t i = 0; i < plan->num_survivors; ++i)
        EXPECT_EQ(receipt.touched[i], survivors[i])
            << context << " logical " << logical << " survivor " << i;
    }
    canonical_fill(logical, kSeed, expected);
    EXPECT_EQ(unit, expected) << context << " logical " << logical;
  }
}

/// Rewrites every 7th logical (same canonical content) and pins the write
/// receipt -- strategy kind, peer reads, written units -- to the
/// reference array's plan_write.
void expect_writes_match(StripeStore& store, const api::Array& reference,
                         const std::string& context) {
  std::vector<std::uint8_t> unit(store.unit_bytes());
  std::array<Physical, 64> peers;

  for (std::uint64_t logical = 0; logical < store.num_logical_units();
       logical += 7) {
    const auto plan = reference.plan_write(logical, peers);
    ASSERT_TRUE(plan.ok()) << context;
    canonical_fill(logical, kSeed, unit);
    WriteReceipt receipt;
    const Status status = store.write(logical, unit, &receipt);

    ASSERT_EQ(receipt.kind, plan->kind) << context << " logical " << logical;
    const bool multi = reference.num_parity_units() > 1;
    switch (plan->kind) {
      case api::WritePlan::Kind::kReadModifyWrite:
        ASSERT_TRUE(status.ok()) << context;
        if (multi) {
          ASSERT_EQ(receipt.num_writes, 1u + plan->num_parities);
          EXPECT_EQ(receipt.writes[0], plan->data);
          for (std::uint32_t j = 0; j < plan->num_parities; ++j)
            EXPECT_EQ(receipt.writes[1 + j], plan->parity_targets[j])
                << context << " logical " << logical << " parity " << j;
        } else {
          // The m = 1 receipt shape is pinned byte-for-byte: the codec
          // seam must not disturb the legacy XOR fast path.
          ASSERT_EQ(receipt.num_writes, 2u);
          EXPECT_EQ(receipt.writes[0], plan->data);
          EXPECT_EQ(receipt.writes[1], plan->parity);
        }
        break;
      case api::WritePlan::Kind::kReconstructWrite:
        ASSERT_TRUE(status.ok()) << context;
        for (std::uint32_t i = 0; i < plan->num_peer_reads; ++i)
          EXPECT_EQ(receipt.reads[i], peers[i])
              << context << " logical " << logical << " peer " << i;
        if (multi) {
          // Multi-parity reconstruct-writes also read the old surviving
          // parities (for second-erasure decode and rollback).
          ASSERT_EQ(receipt.num_reads,
                    plan->num_peer_reads + plan->num_parities);
          ASSERT_EQ(receipt.num_writes, plan->num_parities);
          for (std::uint32_t j = 0; j < plan->num_parities; ++j)
            EXPECT_EQ(receipt.writes[j], plan->parity_targets[j])
                << context << " logical " << logical << " parity " << j;
        } else {
          ASSERT_EQ(receipt.num_reads, plan->num_peer_reads);
          ASSERT_EQ(receipt.num_writes, 1u);
          EXPECT_EQ(receipt.writes[0], plan->parity);
        }
        break;
      case api::WritePlan::Kind::kUnprotectedWrite:
        ASSERT_TRUE(status.ok()) << context;
        ASSERT_EQ(receipt.num_writes, 1u);
        EXPECT_EQ(receipt.writes[0], plan->data);
        break;
      case api::WritePlan::Kind::kUnrecoverable:
        EXPECT_EQ(status.code(), StatusCode::kDataLoss)
            << context << " logical " << logical;
        break;
    }
  }
}

void run_case(const Case& c) {
  const std::string context = describe(c);
  const core::ArraySpec spec{kV, kK};
  const api::ArrayOptions options{.sparing = c.sparing,
                                  .construction = c.construction,
                                  .codec = c.codec};
  auto store_array = api::Array::create(spec, {}, options);
  auto reference = api::Array::create(spec, {}, options);
  ASSERT_TRUE(store_array.ok()) << context << ": "
                                << store_array.status().to_string();
  ASSERT_TRUE(reference.ok()) << context;

  auto store = StripeStore::create(
      std::move(store_array).value(),
      {.unit_bytes = kUnitBytes, .iterations = kIterations},
      make_case_backend(c));
  ASSERT_TRUE(store.ok()) << context << ": " << store.status().to_string();
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok())
      << context;

  // Checksums of every disk while healthy, for the rebuild-identity check.
  const auto healthy_sums_result = store->checksum_disks();
  ASSERT_TRUE(healthy_sums_result.ok()) << context;
  const std::vector<std::uint64_t>& healthy_sums = *healthy_sums_result;

  // Drive both objects through the identical failure sequence.
  for (const layout::DiskId disk : c.failures) {
    ASSERT_TRUE(store->fail_disk(disk).ok()) << context;
    ASSERT_TRUE(reference->fail_disk(disk).ok()) << context;
  }

  expect_reads_match(*store, *reference, context + " [degraded]");
  expect_writes_match(*store, *reference, context + " [degraded]");
  // The rewrites kept content canonical, so reads still verify.
  expect_reads_match(*store, *reference, context + " [rewritten]");

  // Repair: replacements on both, then rebuild both; the store must land
  // in the same online state and serve every recoverable byte again.
  for (const layout::DiskId disk : c.failures) {
    ASSERT_TRUE(store->replace_disk(disk).ok()) << context;
    ASSERT_TRUE(reference->replace_disk(disk).ok()) << context;
  }
  const auto store_outcome = store->rebuild();
  ASSERT_TRUE(store_outcome.ok()) << context;
  const auto ref_outcome = reference->rebuild();
  ASSERT_TRUE(ref_outcome.ok()) << context;
  EXPECT_EQ(store_outcome->applied, ref_outcome->applied) << context;
  EXPECT_EQ(store_outcome->blocked, ref_outcome->blocked) << context;
  EXPECT_EQ(store->array().lost_units(), reference->lost_units()) << context;
  EXPECT_EQ(store->array().stripes_lost(), reference->stripes_lost())
      << context;

  expect_reads_match(*store, *reference, context + " [rebuilt]");

  // Dedicated replacement rebuilds in place: every rebuilt disk must be
  // checksum-identical to its pre-failure contents (the rewrites above
  // re-stored canonical bytes, so content never moved).  XOR arrays can
  // only promise this through one failure; Reed-Solomon through two.
  const std::size_t tolerated = store->array().num_parity_units();
  if (!c.failures.empty() && c.failures.size() <= tolerated &&
      c.sparing == api::SparingMode::kNone) {
    for (const layout::DiskId disk : c.failures) {
      const auto rebuilt_sum = store->checksum_disk(disk);
      ASSERT_TRUE(rebuilt_sum.ok()) << context;
      EXPECT_EQ(*rebuilt_sum, healthy_sums[disk])
          << context << ": rebuilt disk " << disk
          << " contents differ from pre-failure";
    }
    EXPECT_TRUE(store->array().healthy()) << context;
  }
  if (c.failures.size() <= tolerated) {
    EXPECT_FALSE(store->array().data_loss()) << context;
  }
}

/// run_case plus scratch-directory cleanup for file-backed cases.
void run_case_cleanup(Case c, BackendKind backend) {
  c.backend = backend;
  run_case(c);
  if (backend == BackendKind::kFile) {
    std::error_code ec;
    std::filesystem::remove_all(case_scratch_dir(c), ec);
  }
}

TEST(DatapathDifferential, AtLeastFourConstructionsApply) {
  EXPECT_GE(applicable_constructions().size(), 4u);
}

/// The full construction x sparing x failure-count matrix over one
/// backend and codec -- ONE definition, so the memory/file and XOR/RS
/// sweeps can never silently diverge in coverage.
void run_full_matrix(BackendKind backend, core::CodecKind codec) {
  const auto constructions = applicable_constructions();
  ASSERT_GE(constructions.size(), 3u);
  for (const core::Construction construction : constructions) {
    for (const api::SparingMode sparing :
         {api::SparingMode::kNone, api::SparingMode::kDistributed}) {
      for (const std::uint32_t failures : {0u, 1u, 2u}) {
        Case c{construction, sparing, {}};
        c.codec = codec;
        if (failures >= 1) c.failures.push_back(0);
        if (failures >= 2) c.failures.push_back(kV / 2);
        run_case_cleanup(c, backend);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(DatapathDifferential, AllConstructionsFailuresAndSparingModes) {
  run_full_matrix(BackendKind::kMemory, core::CodecKind::kXorParity);
}

// The identical matrix over pread/pwrite file images: the DiskBackend
// seam must be invisible -- every receipt, byte, and checksum that held
// for the memory substrate must hold for the persistent one.
TEST(DatapathDifferential, AllCasesOverFileBackend) {
  run_full_matrix(BackendKind::kFile, core::CodecKind::kXorParity);
}

// The identical matrix under GF(2^8) Reed-Solomon P+Q: the paper's
// layouts carry the second parity through the same declustered mapping,
// and TWO concurrent failures must now serve every byte and rebuild
// checksum-identical disk contents.
TEST(DatapathDifferential, ReedSolomonMatrixOverMemoryBackend) {
  run_full_matrix(BackendKind::kMemory, core::CodecKind::kReedSolomonPQ);
}

TEST(DatapathDifferential, ReedSolomonMatrixOverFileBackend) {
  run_full_matrix(BackendKind::kFile, core::CodecKind::kReedSolomonPQ);
}

// ------------------------------------------------- integrity rot matrix

std::filesystem::path rot_scratch_dir(bool async, core::CodecKind codec) {
  return std::filesystem::temp_directory_path() /
         ("pdl_datapath_rot_" +
          std::to_string(static_cast<unsigned long>(::getpid()))) /
         (std::string(core::codec_kind_name(codec)) +
          (async ? "_async" : "_sync"));
}

/// Seeded single-bit rot on a HEALTHY integrity-enabled store: every
/// corrupted unit must be detected on read (counted as a CRC mismatch),
/// served canonically anyway (reconstructed through the codec), and
/// healed in place so the media ends checksum-identical to the
/// pre-corruption oracle.  Two rot flavours per case: persistent
/// on-media flips written behind the store's back, and one scripted
/// transient read-buffer flip from the FaultInjectionBackend.
void run_rot_case(BackendKind backend_kind, bool async,
                  core::CodecKind codec) {
  const std::string context =
      "rot/" + std::string(core::codec_kind_name(codec)) +
      (async ? "/async" : "/sync") +
      (backend_kind == BackendKind::kFile ? "/file" : "/memory");
  const auto constructions = applicable_constructions();
  ASSERT_FALSE(constructions.empty()) << context;

  auto array = api::Array::create(
      {kV, kK}, {},
      {.construction = constructions.front(), .codec = codec,
       .integrity = true});
  ASSERT_TRUE(array.ok()) << context << ": " << array.status().to_string();

  const std::filesystem::path scratch = rot_scratch_dir(async, codec);
  std::unique_ptr<io::DiskBackend> base =
      backend_kind == BackendKind::kFile
          ? make_file_backend({.directory = scratch.string()})
          : make_memory_backend();
  // The decorator hides the substrate's memory views, so every unit
  // crosses the streamed read path where rot applies and is CRC-checked.
  auto fault = std::make_unique<FaultInjectionBackend>(
      std::move(base), FaultInjectionOptions{.seed = kSeed});
  FaultInjectionBackend* fault_ptr = fault.get();
  std::unique_ptr<io::DiskBackend> backend = std::move(fault);
  if (async) backend = make_async_backend(std::move(backend), {});

  auto store = StripeStore::create(
      std::move(array).value(),
      {.unit_bytes = kUnitBytes, .iterations = kIterations},
      std::move(backend));
  ASSERT_TRUE(store.ok()) << context << ": " << store.status().to_string();
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok())
      << context;
  const auto oracle = store->checksum_disks();
  ASSERT_TRUE(oracle.ok()) << context;

  // Persistent rot: flip one bit in three spread-out units, behind the
  // store's back (its CRC cache still vouches for the original bytes).
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, store->num_logical_units() / 3);
  std::uint64_t corrupted = 0;
  for (std::uint64_t logical = 0;
       logical < store->num_logical_units() && corrupted < 3;
       logical += stride, ++corrupted) {
    const Physical p = store->array().map(logical);
    const std::uint64_t byte =
        static_cast<std::uint64_t>(p.offset) * kUnitBytes;
    std::uint8_t media = 0;
    ASSERT_TRUE(store->backend().read(p.disk, byte, {&media, 1}).ok())
        << context;
    media ^= 0x10;
    ASSERT_TRUE(store->backend().write(p.disk, byte, {&media, 1}).ok())
        << context;
  }
  // Transient rot: one scripted flip on the very next backend read op
  // (the first unit the verification loop below fetches).
  const std::uint64_t next_read[] = {fault_ptr->stats().reads + 1};
  fault_ptr->arm_rot_on_reads(next_read);

  // Every byte must still come back canonical: detect, reconstruct
  // through the codec, retry -- all transparent to the caller.
  std::vector<std::uint8_t> unit(store->unit_bytes());
  std::vector<std::uint8_t> expected(store->unit_bytes());
  for (std::uint64_t logical = 0; logical < store->num_logical_units();
       ++logical) {
    ASSERT_TRUE(store->read(logical, unit).ok())
        << context << " logical " << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << context << " logical " << logical;
  }

  const IntegrityStats stats = store->integrity_stats();
  EXPECT_GE(stats.mismatches, corrupted + 1) << context;  // + the transient
  EXPECT_GE(stats.healed, corrupted) << context;  // media flips healed
  EXPECT_EQ(stats.unhealable, 0u) << context;
  EXPECT_GT(stats.verified, 0u) << context;

  // A full scrub cycle and the parity re-encode audit close the loop:
  // nothing left to heal, no instance inconsistent, and the media is
  // byte-identical to before the corruption.
  const auto sweep = store->scrub();
  ASSERT_TRUE(sweep.ok()) << context;
  EXPECT_EQ(sweep->unhealable, 0u) << context;
  const auto inconsistent = store->verify_stripes();
  ASSERT_TRUE(inconsistent.ok()) << context;
  EXPECT_EQ(*inconsistent, 0u) << context;
  const auto after = store->checksum_disks();
  ASSERT_TRUE(after.ok()) << context;
  for (std::size_t d = 0; d < oracle->size(); ++d)
    EXPECT_EQ((*after)[d], (*oracle)[d])
        << context << ": disk " << d
        << " not checksum-identical after heal";

  if (backend_kind == BackendKind::kFile) {
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
  }
}

/// The rot detect/heal matrix over sync/async submission and both
/// codecs -- ONE definition shared by the memory and file sweeps.
void run_rot_matrix(BackendKind backend) {
  for (const bool async : {false, true}) {
    for (const core::CodecKind codec :
         {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ}) {
      run_rot_case(backend, async, codec);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(DatapathDifferential, RotDetectHealMatrixOverMemoryBackend) {
  run_rot_matrix(BackendKind::kMemory);
}

TEST(DatapathDifferential, RotDetectHealMatrixOverFileBackend) {
  run_rot_matrix(BackendKind::kFile);
}

// ------------------------------------------------- memory-view aliasing

/// A MemoryBackend behind a decorator that counts every unit read and
/// write reaching the substrate, and every batched request per (disk,
/// IoClass).  `forward_view` decides whether the decorator passes
/// memory_view through, so one store code path can be driven with reads
/// aliasing the images or streaming through the backend.
class CountingBackend final : public DiskBackend {
 public:
  using ClassCounts =
      std::array<std::array<std::atomic<std::uint64_t>, 4>, kV>;

  explicit CountingBackend(bool forward_view)
      : inner_(make_memory_backend()), forward_view_(forward_view) {}

  /// Counts each request, runs `before_rebuild_read` (when set) ahead
  /// of a batch holding rebuild reads, then runs the batch through
  /// read()/write() (the base class's sequential reference), so the
  /// unit counters above see batched traffic too.
  Status execute_batch(std::span<IoRequest> batch) override {
    bool rebuild_read = false;
    for (const IoRequest& request : batch) {
      const bool read = request.op == IoRequest::Op::kRead;
      rebuild_read |= read && request.io_class == IoClass::kRebuild;
      ClassCounts& counts = read ? batch_reads : batch_writes;
      counts[request.disk][static_cast<std::size_t>(request.io_class)]
          .fetch_add(1, std::memory_order_relaxed);
    }
    if (rebuild_read && before_rebuild_read) before_rebuild_read();
    return DiskBackend::execute_batch(batch);
  }

  Status open(const BackendGeometry& geometry) override {
    return inner_->open(geometry);
  }
  Status read(DiskId disk, std::uint64_t offset,
              std::span<std::uint8_t> out) override {
    reads.fetch_add(1, std::memory_order_relaxed);
    return inner_->read(disk, offset, out);
  }
  Status write(DiskId disk, std::uint64_t offset,
               std::span<const std::uint8_t> data) override {
    writes.fetch_add(1, std::memory_order_relaxed);
    return inner_->write(disk, offset, data);
  }
  Status sync(DiskId disk) override { return inner_->sync(disk); }
  Status discard(DiskId disk, std::uint8_t fill) override {
    return inner_->discard(disk, fill);
  }
  std::string_view name() const noexcept override { return "counting"; }
  std::span<std::uint8_t> memory_view(DiskId disk) noexcept override {
    return forward_view_ ? inner_->memory_view(disk)
                         : std::span<std::uint8_t>{};
  }

  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
  ClassCounts batch_reads{};
  ClassCounts batch_writes{};
  std::function<void()> before_rebuild_read;

 private:
  std::unique_ptr<DiskBackend> inner_;
  bool forward_view_;
};

struct CountedStore {
  std::unique_ptr<StripeStore> store;
  CountingBackend* counts = nullptr;  ///< owned by the store
};

CountedStore make_counted_store(core::CodecKind codec, bool forward_view,
                                bool integrity, bool cache) {
  CountedStore s;
  auto array = api::Array::create({kV, kK}, {},
                                  {.codec = codec, .integrity = integrity});
  EXPECT_TRUE(array.ok()) << array.status().to_string();
  if (!array.ok()) return s;
  auto backend = std::make_unique<CountingBackend>(forward_view);
  s.counts = backend.get();
  StripeStoreOptions options{.unit_bytes = kUnitBytes,
                             .iterations = kIterations};
  options.cache.enabled = cache;
  auto store = StripeStore::create(std::move(array).value(), options,
                                   std::move(backend));
  EXPECT_TRUE(store.ok()) << store.status().to_string();
  if (store.ok())
    s.store = std::make_unique<StripeStore>(std::move(store).value());
  return s;
}

// Over a backend that exposes memory_view, reads alias the disk images
// (no backend read at all, healthy or degraded) while every write goes
// through the backend: an RMW issues exactly one write for the data unit
// and one per parity.
TEST(DatapathDifferential, ViewBackendReadsAliasAndWritesGoThroughBackend) {
  for (const core::CodecKind codec :
       {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ}) {
    const std::string context(core::codec_kind_name(codec));
    CountedStore s = make_counted_store(codec, /*forward_view=*/true,
                                        /*integrity=*/false, /*cache=*/false);
    ASSERT_TRUE(s.store) << context;
    StripeStore& store = *s.store;
    ASSERT_TRUE(fill_canonical(store, 0, store.num_logical_units(), kSeed).ok())
        << context;
    const std::uint64_t parities = store.array().num_parity_units();

    std::vector<std::uint8_t> unit(store.unit_bytes());
    const auto read_all = [&](const std::string& phase) {
      const std::uint64_t reads = s.counts->reads.load();
      const std::uint64_t writes = s.counts->writes.load();
      for (std::uint64_t logical = 0; logical < store.num_logical_units();
           ++logical)
        ASSERT_TRUE(store.read(logical, unit).ok())
            << context << " " << phase << " logical " << logical;
      EXPECT_EQ(s.counts->reads.load(), reads) << context << " " << phase;
      EXPECT_EQ(s.counts->writes.load(), writes) << context << " " << phase;
    };
    read_all("healthy");

    for (std::uint64_t logical = 0; logical < store.num_logical_units();
         logical += 5) {
      canonical_fill(logical, kSeed + 1, unit);
      const std::uint64_t before = s.counts->writes.load();
      WriteReceipt receipt;
      ASSERT_TRUE(store.write(logical, unit, &receipt).ok()) << context;
      ASSERT_EQ(receipt.kind, api::WritePlan::Kind::kReadModifyWrite)
          << context;
      EXPECT_EQ(s.counts->writes.load() - before, 1 + parities)
          << context << " logical " << logical;
    }
    EXPECT_EQ(s.counts->reads.load(), 0u) << context;

    ASSERT_TRUE(store.fail_disk(2).ok()) << context;
    read_all("degraded");
  }
}

/// One seeded fail / write / replace / rebuild / scrub sequence, recorded
/// as every receipt and served byte plus the final disk checksums.
struct SequenceRecord {
  std::vector<std::uint64_t> sums;
  std::vector<ReadReceipt> reads;
  std::vector<WriteReceipt> writes;
  std::vector<std::uint8_t> bytes;
  std::uint64_t rebuilt = 0;
};

void expect_same_receipts(const SequenceRecord& a, const SequenceRecord& b,
                          const std::string& context) {
  ASSERT_EQ(a.reads.size(), b.reads.size()) << context;
  for (std::size_t i = 0; i < a.reads.size(); ++i) {
    EXPECT_EQ(a.reads[i].kind, b.reads[i].kind) << context << " read " << i;
    EXPECT_TRUE(std::ranges::equal(a.reads[i].units(), b.reads[i].units()))
        << context << " read " << i;
  }
  ASSERT_EQ(a.writes.size(), b.writes.size()) << context;
  for (std::size_t i = 0; i < a.writes.size(); ++i) {
    EXPECT_EQ(a.writes[i].kind, b.writes[i].kind) << context << " write " << i;
    EXPECT_TRUE(std::ranges::equal(a.writes[i].read_units(),
                                   b.writes[i].read_units()))
        << context << " write " << i;
    EXPECT_TRUE(std::ranges::equal(a.writes[i].written_units(),
                                   b.writes[i].written_units()))
        << context << " write " << i;
  }
}

SequenceRecord run_sequence(core::CodecKind codec, bool forward_view,
                            bool cache, const std::string& context) {
  SequenceRecord record;
  CountedStore s = make_counted_store(codec, forward_view,
                                      /*integrity=*/true, cache);
  EXPECT_TRUE(s.store) << context;
  if (!s.store) return record;
  StripeStore& store = *s.store;
  EXPECT_TRUE(fill_canonical(store, 0, store.num_logical_units(), kSeed).ok())
      << context;

  std::mt19937_64 rng(kSeed);
  std::vector<std::uint8_t> unit(store.unit_bytes());
  const auto write_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const std::uint64_t logical = rng() % store.num_logical_units();
      for (std::uint8_t& b : unit) b = static_cast<std::uint8_t>(rng());
      WriteReceipt receipt;
      EXPECT_TRUE(store.write(logical, unit, &receipt).ok())
          << context << " logical " << logical;
      record.writes.push_back(receipt);
    }
  };
  const auto read_all = [&] {
    for (std::uint64_t logical = 0; logical < store.num_logical_units();
         ++logical) {
      ReadReceipt receipt;
      EXPECT_TRUE(store.read(logical, unit, &receipt).ok())
          << context << " logical " << logical;
      record.reads.push_back(receipt);
      record.bytes.insert(record.bytes.end(), unit.begin(), unit.end());
    }
  };

  // One failure under XOR, two under Reed-Solomon: reconstruct-writes,
  // unprotected writes and (RS) a second-erasure decode all run.
  std::vector<layout::DiskId> failed = {3};
  if (store.array().num_parity_units() > 1) failed.push_back(11);
  write_some(60);
  for (const layout::DiskId disk : failed)
    EXPECT_TRUE(store.fail_disk(disk).ok()) << context;
  read_all();
  write_some(60);
  for (const layout::DiskId disk : failed)
    EXPECT_TRUE(store.replace_disk(disk).ok()) << context;
  const auto outcome = store.rebuild();
  EXPECT_TRUE(outcome.ok()) << context;
  if (outcome.ok()) record.rebuilt = outcome->applied;
  const auto sweep = store.scrub();
  EXPECT_TRUE(sweep.ok()) << context;
  write_some(30);

  std::vector<std::uint64_t> logicals(store.num_logical_units());
  for (std::uint64_t i = 0; i < logicals.size(); ++i) logicals[i] = i;
  std::vector<std::uint8_t> batch(logicals.size() * store.unit_bytes());
  std::vector<Status> statuses(logicals.size());
  std::vector<ReadReceipt> receipts(logicals.size());
  EXPECT_TRUE(store.read_batch(logicals, batch, statuses, receipts).ok())
      << context;
  record.reads.insert(record.reads.end(), receipts.begin(), receipts.end());
  record.bytes.insert(record.bytes.end(), batch.begin(), batch.end());

  const auto sums = store.checksum_disks();
  EXPECT_TRUE(sums.ok()) << context;
  if (sums.ok()) record.sums = *sums;
  return record;
}

// The same seeded sequence over a backend whose reads alias the images
// and over the identical backend with memory_view hidden ends with
// identical disks, receipts and served bytes.
TEST(DatapathDifferential, AliasedAndStreamedStoresAgree) {
  for (const core::CodecKind codec :
       {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ}) {
    for (const bool cache : {false, true}) {
      const std::string context = std::string(core::codec_kind_name(codec)) +
                                  (cache ? "/cache" : "/nocache");
      const SequenceRecord aliased =
          run_sequence(codec, /*forward_view=*/true, cache, context);
      const SequenceRecord streamed =
          run_sequence(codec, /*forward_view=*/false, cache, context);
      ASSERT_FALSE(aliased.sums.empty()) << context;
      EXPECT_EQ(aliased.sums, streamed.sums) << context;
      EXPECT_EQ(aliased.rebuilt, streamed.rebuilt) << context;
      EXPECT_GT(aliased.rebuilt, 0u) << context;
      EXPECT_EQ(aliased.bytes, streamed.bytes) << context;
      expect_same_receipts(aliased, streamed, context);
    }
  }
}

// The paper's distributed-reconstruction property on the real data
// path: while a writer thread keeps landing foreground writes, rebuilding
// one failed and replaced disk through rebuild_some(4) reads exactly the
// planned survivor units from every disk and writes exactly the planned
// target units -- once each, every iteration, with no survivor read
// twice.  Reads stream through execute_batch (memory_view hidden) so
// every one is counted, and each rebuild read gives the writer up to a
// millisecond to land a write first, so any write the store lets in
// between a plan and its step is sure to happen.
TEST(DatapathDifferential, RebuildUnderWritesReadsEachPlannedSurvivorOnce) {
  constexpr layout::DiskId kFailed = 3;
  constexpr auto kRebuild = static_cast<std::size_t>(IoClass::kRebuild);
  for (const core::CodecKind codec :
       {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ}) {
    const std::string context(core::codec_kind_name(codec));
    CountedStore s = make_counted_store(codec, /*forward_view=*/false,
                                        /*integrity=*/false, /*cache=*/false);
    ASSERT_TRUE(s.store) << context;
    StripeStore& store = *s.store;
    const std::uint64_t n = store.num_logical_units();
    ASSERT_TRUE(fill_canonical(store, 0, n, kSeed).ok()) << context;
    ASSERT_TRUE(store.fail_disk(kFailed).ok()) << context;
    ASSERT_TRUE(store.replace_disk(kFailed).ok()) << context;
    const auto plan = store.array().plan_rebuild();
    ASSERT_TRUE(plan.ok()) << context;
    ASSERT_FALSE(plan->steps.empty()) << context;

    std::array<std::array<std::uint64_t, 2>, kV> before{};
    for (layout::DiskId d = 0; d < kV; ++d)
      before[d] = {s.counts->batch_reads[d][kRebuild].load(),
                   s.counts->batch_writes[d][kRebuild].load()};

    // The writer owns every logical unit it rewrites (with the kSeed + 1
    // content) and runs until the rebuild loop is done.
    std::atomic<bool> stop{false};
    std::atomic<bool> failed{false};
    std::atomic<std::uint64_t> landed{0};
    std::vector<char> rewritten(n, 0);
    std::thread writer([&] {
      std::vector<std::uint8_t> unit(store.unit_bytes());
      for (std::uint64_t i = 0; !stop.load(); ++i) {
        const std::uint64_t logical = (i * 7) % n;
        canonical_fill(logical, kSeed + 1, unit);
        if (!store.write(logical, unit).ok()) {
          failed.store(true);
          return;
        }
        rewritten[logical] = 1;
        landed.fetch_add(1);
      }
    });
    while (landed.load() == 0 && !failed.load()) std::this_thread::yield();
    s.counts->before_rebuild_read = [&] {
      const std::uint64_t seen = landed.load();
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
      while (landed.load() == seen && !failed.load() &&
             std::chrono::steady_clock::now() < until)
        std::this_thread::yield();
    };
    std::uint64_t applied = 0;
    for (;;) {
      const auto some = store.rebuild_some(4);
      if (!some.ok() || *some == 0) {
        EXPECT_TRUE(some.ok()) << context << " " << some.status().to_string();
        break;
      }
      applied += *some;
    }
    stop.store(true);
    writer.join();
    s.counts->before_rebuild_read = nullptr;
    EXPECT_FALSE(failed.load()) << context;
    EXPECT_GT(landed.load(), 0u) << context;
    EXPECT_EQ(applied, plan->steps.size()) << context;
    EXPECT_TRUE(store.array().healthy()) << context;

    for (layout::DiskId d = 0; d < kV; ++d) {
      EXPECT_EQ(s.counts->batch_reads[d][kRebuild].load() - before[d][0],
                std::uint64_t{plan->reads_per_disk[d]} * kIterations)
          << context << " disk " << d;
      EXPECT_EQ(s.counts->batch_writes[d][kRebuild].load() - before[d][1],
                std::uint64_t{plan->writes_per_disk[d]} * kIterations)
          << context << " disk " << d;
    }

    std::vector<std::uint8_t> unit(store.unit_bytes());
    std::vector<std::uint8_t> expected(store.unit_bytes());
    for (std::uint64_t logical = 0; logical < n; ++logical) {
      ASSERT_TRUE(store.read(logical, unit).ok()) << context;
      canonical_fill(logical, rewritten[logical] ? kSeed + 1 : kSeed,
                     expected);
      ASSERT_EQ(unit, expected) << context << " logical " << logical;
    }
  }
}

}  // namespace
}  // namespace pdl::io
