// Regression suite for the torn-parity RMW window.  A small write's
// parity maintenance can land PARTIALLY (some stripes writes succeed,
// some fail); the store compensates by rolling the landed writes back,
// and before this suite's bugfix a FAILED compensation simply returned
// the original error -- leaving parity silently inconsistent with data,
// so a later degraded read or rebuild decode would fabricate bytes.
// The store now marks the stripe instance "torn", surfaces
// kParityInconsistent, refuses every parity-trusting operation on the
// instance, and heals (full re-encode) on the next full-knowledge write.
//
// The scripted fault injector forces the exact double-fault
// interleavings deterministically: the base execute_batch issues a
// batch's requests strictly in order, so lifetime write ordinals
// identify "the data write of the Nth store.write()" precisely.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "api/array.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"

namespace pdl::io {
namespace {

constexpr std::uint32_t kUnitBytes = 40;
constexpr std::uint32_t kIterations = 2;
constexpr std::uint64_t kSeed = 0x70A1;

struct TornFixture {
  std::unique_ptr<StripeStore> store;
  FaultInjectionBackend* faults = nullptr;  ///< owned by the store

  /// num_disks=9, stripe_size=4 (complete-ish catalog pick), dedicated
  /// sparing: every unit write while healthy is an RMW touching
  /// 1 + num_parity units.
  static TornFixture create(core::CodecKind codec,
                            std::vector<std::uint64_t> fail_write_ops) {
    TornFixture f;
    auto array = api::Array::create({.num_disks = 9, .stripe_size = 4}, {},
                                    {.codec = codec});
    EXPECT_TRUE(array.ok()) << array.status().to_string();
    if (!array.ok()) return f;
    auto fault_backend = std::make_unique<FaultInjectionBackend>(
        make_memory_backend(),
        FaultInjectionOptions{.fail_write_ops = std::move(fail_write_ops)});
    f.faults = fault_backend.get();
    auto store = StripeStore::create(
        std::move(array).value(),
        {.unit_bytes = kUnitBytes, .iterations = kIterations},
        std::move(fault_backend));
    EXPECT_TRUE(store.ok()) << store.status().to_string();
    if (store.ok())
      f.store = std::make_unique<StripeStore>(std::move(store).value());
    return f;
  }
};

/// Writes-per-unit while healthy: data + every parity.
std::uint64_t writes_per_unit(const StripeStore& store) {
  return 1 + store.array().num_parity_units();
}

/// Ordinal script that makes the FIRST write after `fill` double-fault:
/// under XOR the batch is [data, parity] and the rollback rewrites the
/// data unit, so failing ordinals {base+2, base+3} means "data landed,
/// parity failed, data restore failed".  Under RS the batch is
/// [data, P, Q] and the rollback rewrites the data unit first, so
/// {base+3, base+4} means "data and P landed, Q failed, data rollback
/// failed".
std::vector<std::uint64_t> double_fault_script(core::CodecKind codec,
                                               std::uint64_t fill_units,
                                               std::uint64_t per_unit) {
  const std::uint64_t base = fill_units * per_unit;
  if (codec == core::CodecKind::kXorParity) return {base + 2, base + 3};
  return {base + 3, base + 4};
}

void expect_canonical(StripeStore& store, std::uint64_t logical,
                      const char* context) {
  std::vector<std::uint8_t> unit(store.unit_bytes());
  std::vector<std::uint8_t> expected(store.unit_bytes());
  ASSERT_TRUE(store.read(logical, unit).ok()) << context;
  canonical_fill(logical, kSeed, expected);
  EXPECT_EQ(unit, expected) << context;
}

void run_double_fault_marks_torn(core::CodecKind codec) {
  auto f = TornFixture::create(codec, {});
  ASSERT_TRUE(f.store);
  StripeStore& store = *f.store;
  const std::uint64_t n = store.num_logical_units();
  ASSERT_TRUE(fill_canonical(store, 0, n, kSeed).ok());
  const std::uint64_t per_unit = writes_per_unit(store);

  // Re-create with the scripted faults positioned right after the fill.
  auto scripted = TornFixture::create(
      codec, double_fault_script(codec, n, per_unit));
  ASSERT_TRUE(scripted.store);
  StripeStore& s = *scripted.store;
  ASSERT_TRUE(fill_canonical(s, 0, n, kSeed).ok());
  EXPECT_EQ(s.torn_parity_instances(), 0u);

  // The double-fault write: partial stripe write AND failed compensation.
  const std::uint64_t victim = 0;
  std::vector<std::uint8_t> fresh(s.unit_bytes(), 0xA5);
  const Status torn_write = s.write(victim, fresh);
  EXPECT_EQ(torn_write.code(), StatusCode::kParityInconsistent)
      << torn_write.to_string();
  EXPECT_EQ(s.torn_parity_instances(), 1u);
  const auto ref = s.array().logical_ref(victim);
  EXPECT_TRUE(s.parity_torn(ref.stripe, ref.iteration));
  EXPECT_FALSE(s.parity_torn(ref.stripe, ref.iteration + 1))
      << "the tear must be per stripe INSTANCE, not per stripe";

  // Healthy (direct) reads never trust parity: still served.
  std::vector<std::uint8_t> unit(s.unit_bytes());
  EXPECT_TRUE(s.read(victim, unit).ok());

  // Degraded reads on the torn instance are refused -- the decode would
  // otherwise fabricate bytes from inconsistent parity.
  std::array<Physical, 64> survivors;
  const auto plan = s.array().locate(victim, survivors);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(s.fail_disk(plan->target.disk).ok());
  const Status degraded = s.read(victim, unit);
  EXPECT_EQ(degraded.code(), StatusCode::kParityInconsistent)
      << degraded.to_string();

  // read_batch refuses the torn unit with the same typed status but
  // keeps serving its batchmates.
  const std::uint64_t logicals[2] = {victim, victim + 1};
  std::vector<std::uint8_t> out(2 * s.unit_bytes());
  Status statuses[2];
  (void)s.read_batch(logicals, out, statuses, {});
  EXPECT_EQ(statuses[0].code(), StatusCode::kParityInconsistent);
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].to_string();

  // A rebuild step that would decode data THROUGH the torn parity is
  // refused with the same typed status (not silently corrupted).
  ASSERT_TRUE(s.replace_disk(plan->target.disk).ok());
  const auto outcome = s.rebuild();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kParityInconsistent)
      << outcome.status().to_string();

  // A reconstruct-write on the torn + degraded instance is unhealable.
  const Status unhealable = s.write(victim, fresh);
  EXPECT_EQ(unhealable.code(), StatusCode::kParityInconsistent);
}

TEST(TornParity, DoubleFaultMarksTornAndBlocksParityTrustingOpsXor) {
  run_double_fault_marks_torn(core::CodecKind::kXorParity);
}

TEST(TornParity, DoubleFaultMarksTornAndBlocksParityTrustingOpsRs) {
  run_double_fault_marks_torn(core::CodecKind::kReedSolomonPQ);
}

void run_rmw_heals_torn_instance(core::CodecKind codec) {
  auto probe = TornFixture::create(codec, {});
  ASSERT_TRUE(probe.store);
  const std::uint64_t n = probe.store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*probe.store, 0, n, kSeed).ok());
  const std::uint64_t per_unit = writes_per_unit(*probe.store);

  auto f = TornFixture::create(codec,
                               double_fault_script(codec, n, per_unit));
  ASSERT_TRUE(f.store);
  StripeStore& s = *f.store;
  ASSERT_TRUE(fill_canonical(s, 0, n, kSeed).ok());

  const std::uint64_t victim = 0;
  std::vector<std::uint8_t> unit(s.unit_bytes());
  canonical_fill(victim, kSeed, unit);
  EXPECT_EQ(s.write(victim, unit).code(), StatusCode::kParityInconsistent);
  EXPECT_EQ(s.torn_parity_instances(), 1u);

  // The next RMW has every data unit at hand, so it doubles as the
  // heal: full parity re-encode, tear cleared, receipt reporting the
  // peer reads that fed it.
  WriteReceipt receipt;
  const Status healed = s.write(victim, unit, &receipt);
  ASSERT_TRUE(healed.ok()) << healed.to_string();
  EXPECT_EQ(s.torn_parity_instances(), 0u);
  EXPECT_EQ(receipt.num_writes, 1 + s.array().num_parity_units());

  // Parity is consistent again: every degraded decode of the stripe
  // serves canonical bytes.
  std::array<Physical, 64> survivors;
  const auto plan = s.array().locate(victim, survivors);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(s.fail_disk(plan->target.disk).ok());
  expect_canonical(s, victim, "degraded read after heal");
  if (codec == core::CodecKind::kReedSolomonPQ) {
    // Two concurrent failures: the healed stripe must decode through
    // BOTH parities.
    const DiskId second = (plan->target.disk + 1) % s.array().num_disks();
    ASSERT_TRUE(s.fail_disk(second).ok());
    expect_canonical(s, victim, "double-degraded read after heal");
  }
}

TEST(TornParity, RmwWriteHealsTornInstanceXor) {
  run_rmw_heals_torn_instance(core::CodecKind::kXorParity);
}

TEST(TornParity, RmwWriteHealsTornInstanceRs) {
  run_rmw_heals_torn_instance(core::CodecKind::kReedSolomonPQ);
}

TEST(TornParity, SingleFaultCompensationStillRestoresConsistency) {
  // One failed write with a SUCCESSFUL compensation must NOT tear the
  // stripe: the rollback restores the pre-write state exactly, so a
  // degraded read still serves the old canonical bytes.
  auto probe = TornFixture::create(core::CodecKind::kReedSolomonPQ, {});
  ASSERT_TRUE(probe.store);
  const std::uint64_t n = probe.store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*probe.store, 0, n, kSeed).ok());
  const std::uint64_t per_unit = writes_per_unit(*probe.store);

  // Fail only the Q write of the first post-fill RMW ([data, P, Q]):
  // both compensations (data rollback, P re-fold) succeed.
  auto f = TornFixture::create(core::CodecKind::kReedSolomonPQ,
                               {n * per_unit + 3});
  ASSERT_TRUE(f.store);
  StripeStore& s = *f.store;
  ASSERT_TRUE(fill_canonical(s, 0, n, kSeed).ok());

  const std::uint64_t victim = 0;
  std::vector<std::uint8_t> fresh(s.unit_bytes(), 0x5A);
  const Status partial = s.write(victim, fresh);
  EXPECT_EQ(partial.code(), StatusCode::kIoError) << partial.to_string();
  EXPECT_EQ(s.torn_parity_instances(), 0u);

  // Old bytes everywhere, parity consistent: degraded decode through
  // either parity still serves the canonical pre-write content.
  expect_canonical(s, victim, "direct read after rollback");
  std::array<Physical, 64> survivors;
  const auto plan = s.array().locate(victim, survivors);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(s.fail_disk(plan->target.disk).ok());
  expect_canonical(s, victim, "degraded read after rollback");
}

// ---------------------------------------------------------------------
// Single and double faults across a whole commit, integrity on.
//
// Every parity-maintaining write lands through one commit: unit writes
// plus their checksum words in one journaled batch, then -- when only
// some units landed -- a restore batch writing the landed units back.
// The suites below fail every write ordinal (and every pair of ordinals)
// of that sequence and check that the instance is either consistent or
// marked torn, never silently inconsistent.

/// The write operations a fault can land inside.
enum class Op : std::uint8_t {
  kRmw,          ///< healthy small write
  kReconstruct,  ///< write to a unit whose disk is lost
  kUnprotected,  ///< write to a stripe whose every parity is lost
  kFold,         ///< flush_cache folding one absorbed write
  kHeal,         ///< write to a parity-torn instance
};

struct Scenario {
  core::CodecKind codec;
  bool file;  ///< FileBackend with its journal; MemoryBackend otherwise
  Op op;
};

std::string describe(const Scenario& s) {
  static const char* const kOps[] = {"rmw", "reconstruct", "unprotected",
                                     "fold", "heal"};
  return std::string(s.codec == core::CodecKind::kXorParity ? "xor" : "rs") +
         (s.file ? "/file/" : "/memory/") + kOps[static_cast<int>(s.op)];
}

/// A store with integrity on over a FaultInjectionBackend that fails
/// the listed write ordinals; file-backed stores own a fresh directory.
struct FaultyStore {
  std::filesystem::path dir;
  std::unique_ptr<StripeStore> store;
  FaultInjectionBackend* faults = nullptr;  ///< owned by the store

  FaultyStore(const Scenario& s, std::vector<std::uint64_t> fail_write_ops) {
    static int serial = 0;
    std::unique_ptr<DiskBackend> base = make_memory_backend();
    if (s.file) {
      dir = std::filesystem::temp_directory_path() /
            ("pdl_torn_parity_" + std::to_string(::getpid()) + "_" +
             std::to_string(serial++));
      std::filesystem::remove_all(dir);
      base = make_file_backend({.directory = dir.string()});
    }
    auto array = api::Array::create({.num_disks = 9, .stripe_size = 4}, {},
                                    {.codec = s.codec, .integrity = true});
    EXPECT_TRUE(array.ok()) << array.status().to_string();
    if (!array.ok()) return;
    auto backend = std::make_unique<FaultInjectionBackend>(
        std::move(base),
        FaultInjectionOptions{.fail_write_ops = std::move(fail_write_ops)});
    faults = backend.get();
    StripeStoreOptions options{.unit_bytes = kUnitBytes, .iterations = 1};
    if (s.op == Op::kFold) {
      options.cache.enabled = true;
      options.cache.hot_threshold = 1;  // every write is absorbed
      options.cache.decay_interval = 0;
      options.cache.flush_interval_us = 0;  // folds only when flushed
    }
    auto created = StripeStore::create(std::move(array).value(), options,
                                       std::move(backend));
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    if (created.ok())
      store = std::make_unique<StripeStore>(std::move(created).value());
  }
  ~FaultyStore() {
    store.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  FaultyStore(const FaultyStore&) = delete;
  FaultyStore& operator=(const FaultyStore&) = delete;

  [[nodiscard]] std::uint64_t writes() const { return faults->stats().writes; }
};

constexpr std::uint64_t kVictim = 0;

std::vector<std::uint8_t> old_bytes() {
  std::vector<std::uint8_t> bytes(kUnitBytes);
  canonical_fill(kVictim, kSeed, bytes);
  return bytes;
}

std::vector<std::uint8_t> new_bytes() {
  return std::vector<std::uint8_t>(kUnitBytes, 0xA5);
}

/// Brings the store to the state the scenario's operation starts from:
/// every unit canonical, then the op's failed disks, its absorbed write
/// (kFold), or its tearing write (kHeal, torn by the store's scripted
/// faults).  Returns the disks it failed.
std::vector<DiskId> prepare(StripeStore& store, const Scenario& s) {
  EXPECT_TRUE(fill_canonical(store, 0, store.num_logical_units(), kSeed).ok());
  EXPECT_TRUE(store.flush_cache().ok());
  std::array<Physical, 64> peers;
  const auto plan = store.array().plan_write(kVictim, peers);
  EXPECT_TRUE(plan.ok());
  std::vector<DiskId> failed;
  if (s.op == Op::kReconstruct) failed.push_back(plan->data.disk);
  if (s.op == Op::kUnprotected)
    for (std::uint32_t j = 0; j < plan->num_parities; ++j)
      failed.push_back(plan->parity_targets[j].disk);
  for (const DiskId disk : failed) EXPECT_TRUE(store.fail_disk(disk).ok());
  if (s.op == Op::kFold || s.op == Op::kHeal)
    (void)store.write(kVictim, new_bytes());  // absorbed, or torn
  return failed;
}

Status run_op(StripeStore& store, const Scenario& s) {
  if (s.op == Op::kFold) return store.flush_cache();
  return store.write(kVictim, new_bytes());
}

/// Write ordinals before the operation, and the operation's own writes
/// when nothing faults; `setup_faults` are the tearing write's ordinals.
struct Probe {
  std::uint64_t base = 0;
  std::uint64_t batch = 0;
  std::vector<std::uint64_t> setup_faults;
};

Probe probe(const Scenario& s) {
  Probe p;
  if (s.op == Op::kHeal) {
    // Tear: the first parity write fails and so does the restore of the
    // data unit that landed -- ordinals 2 and batch + 1 of the write.
    FaultyStore clean(s, {});
    EXPECT_TRUE(fill_canonical(*clean.store, 0,
                               clean.store->num_logical_units(), kSeed)
                    .ok());
    const std::uint64_t before = clean.writes();
    EXPECT_TRUE(clean.store->write(kVictim, new_bytes()).ok());
    const std::uint64_t batch = clean.writes() - before;
    p.setup_faults = {before + 2, before + batch + 1};
  }
  FaultyStore f(s, p.setup_faults);
  (void)prepare(*f.store, s);
  if (s.op == Op::kHeal) {
    EXPECT_EQ(f.store->torn_parity_instances(), 1u) << describe(s);
  }
  p.base = f.writes();
  EXPECT_TRUE(run_op(*f.store, s).ok()) << describe(s);
  p.batch = f.writes() - p.base;
  return p;
}

/// Reads the victim and checks it holds one of `allowed`.
void expect_victim_in(StripeStore& store,
                      const std::vector<std::vector<std::uint8_t>>& allowed,
                      const std::string& context) {
  std::vector<std::uint8_t> unit(kUnitBytes);
  const Status read = store.read(kVictim, unit);
  ASSERT_TRUE(read.ok()) << context << ": " << read.to_string();
  EXPECT_TRUE(std::find(allowed.begin(), allowed.end(), unit) !=
              allowed.end())
      << context << ": victim holds neither its old nor its new bytes";
}

/// Replaces every failed disk and rebuilds to health, then checks every
/// stripe re-encodes from its data -- a degraded stripe's parities are
/// only comparable once its lost units are back.
void expect_restores_consistent(StripeStore& store,
                                const std::vector<DiskId>& failed,
                                const std::string& context) {
  for (const DiskId disk : failed)
    ASSERT_TRUE(store.replace_disk(disk).ok()) << context;
  const auto rebuilt = store.rebuild();
  ASSERT_TRUE(rebuilt.ok()) << context << ": " << rebuilt.status().to_string();
  const auto inconsistent = store.verify_stripes();
  ASSERT_TRUE(inconsistent.ok()) << context;
  EXPECT_EQ(*inconsistent, 0u) << context;
}

/// File-backed stores only: syncs, reopens the images with no fault
/// injection, fails the same disks again, and scrubs.  Every checksum
/// word on media must agree with its unit -- a stale word would read as
/// rot after the restart and spend one erasure of the stripe's
/// tolerance -- so the reopened store finds no mismatch, and the victim
/// reads as one of `allowed`.  The reopened store replaces f.store.
void expect_media_in_step(FaultyStore& f, const std::vector<DiskId>& failed,
                          const std::vector<std::vector<std::uint8_t>>& allowed,
                          const std::string& context) {
  if (f.dir.empty()) return;
  ASSERT_TRUE(f.store->sync().ok()) << context;
  const std::string array_text = f.store->array().serialize();
  f.store.reset();
  f.faults = nullptr;
  auto array = api::Array::deserialize(array_text);
  ASSERT_TRUE(array.ok()) << context;
  auto reopened = StripeStore::create(
      std::move(array).value(), {.unit_bytes = kUnitBytes, .iterations = 1},
      make_file_backend({.directory = f.dir.string()}));
  ASSERT_TRUE(reopened.ok()) << context << ": "
                             << reopened.status().to_string();
  f.store = std::make_unique<StripeStore>(std::move(reopened).value());
  for (const DiskId disk : failed)
    ASSERT_TRUE(f.store->fail_disk(disk).ok()) << context;
  expect_victim_in(*f.store, allowed, context + " after reopen");
  const auto scrubbed = f.store->scrub();
  ASSERT_TRUE(scrubbed.ok()) << context;
  EXPECT_EQ(f.store->integrity_stats().mismatches, 0u)
      << context << ": a checksum word on media disagrees with its unit";
}

std::vector<Scenario> scenarios(std::initializer_list<Op> ops) {
  std::vector<Scenario> out;
  for (const bool file : {false, true})
    for (const core::CodecKind codec :
         {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ})
      for (const Op op : ops) out.push_back({codec, file, op});
  return out;
}

TEST(TornParity, SingleFaultAnywhereInTheBatchLeavesTheUnitServable) {
  // One failed write -- a unit or a checksum word -- must leave the
  // victim readable as its old or its new bytes, every checksum in step
  // with media (across a reopen, for the file backend), no tear, and a
  // retry that succeeds.
  for (const Scenario& s : scenarios({Op::kRmw, Op::kReconstruct,
                                      Op::kUnprotected, Op::kFold})) {
    const Probe p = probe(s);
    ASSERT_GT(p.batch, 0u) << describe(s);
    for (std::uint64_t k = 1; k <= p.batch; ++k) {
      const std::string context =
          describe(s) + " failing write " + std::to_string(k) + " of " +
          std::to_string(p.batch);
      FaultyStore f(s, {p.base + k});
      const std::vector<DiskId> failed = prepare(*f.store, s);
      EXPECT_FALSE(run_op(*f.store, s).ok()) << context;
      // An absorbed write was acknowledged: only its new bytes are right.
      const std::vector<std::vector<std::uint8_t>> allowed =
          s.op == Op::kFold
              ? std::vector<std::vector<std::uint8_t>>{new_bytes()}
              : std::vector<std::vector<std::uint8_t>>{old_bytes(),
                                                       new_bytes()};
      expect_victim_in(*f.store, allowed, context);
      EXPECT_EQ(f.store->torn_parity_instances(), 0u) << context;
      const auto inconsistent = f.store->verify_stripes();
      ASSERT_TRUE(inconsistent.ok()) << context;
      EXPECT_EQ(*inconsistent, 0u) << context;
      expect_media_in_step(f, failed, allowed, context);

      StripeStore& store = *f.store;
      const Status retried = store.write(kVictim, new_bytes());
      EXPECT_TRUE(retried.ok()) << context << ": " << retried.to_string();
      EXPECT_TRUE(store.flush_cache().ok()) << context;
      expect_victim_in(store, {new_bytes()}, context + " after the retry");
      expect_restores_consistent(store, failed, context);
      expect_victim_in(store, {new_bytes()}, context + " after rebuild");
    }
  }
}

TEST(TornParity, DoubleFaultSweepNeverLeavesAnUntornInconsistentInstance) {
  // Every pair of write ordinals across the operation's batch and its
  // restore writes.  The instance ends either torn -- reported as
  // kParityInconsistent (a heal that rolled back keeps the tear it came
  // in with and reports the substrate error) -- or consistent: the
  // victim holds its old or new bytes, every checksum word on media
  // agrees with its unit, and, after rebuilding any failed disk, every
  // stripe re-encodes from its data.
  std::vector<Scenario> sweep = scenarios({Op::kRmw, Op::kFold, Op::kHeal});
  for (const bool file : {false, true})
    sweep.push_back({core::CodecKind::kReedSolomonPQ, file, Op::kReconstruct});
  for (const Scenario& s : sweep) {
    const Probe p = probe(s);
    // The restore rewrites the landed units, each with its checksum
    // word, and every unit whose word disagreed gets it written back:
    // with two faults, at most one more batch.
    const std::uint64_t span = 2 * p.batch;
    std::uint64_t exercised = 0;
    for (std::uint64_t a = 1; a <= span; ++a)
      for (std::uint64_t b = a + 1; b <= span; ++b) {
        const std::string context = describe(s) + " failing writes " +
                                    std::to_string(a) + " and " +
                                    std::to_string(b);
        std::vector<std::uint64_t> script = p.setup_faults;
        script.push_back(p.base + a);
        script.push_back(p.base + b);
        FaultyStore f(s, script);
        StripeStore& store = *f.store;
        const std::vector<DiskId> failed = prepare(store, s);
        const Status outcome = run_op(store, s);
        // A second ordinal past the operation's last write is a single
        // fault, which the suite above covers.
        if (f.writes() < p.base + b) continue;
        ++exercised;
        const auto ref = store.array().logical_ref(kVictim);
        if (store.parity_torn(ref.stripe, ref.iteration)) {
          if (s.op == Op::kHeal && outcome.code() == StatusCode::kIoError)
            continue;
          EXPECT_EQ(outcome.code(), StatusCode::kParityInconsistent)
              << context << ": " << outcome.to_string();
          continue;
        }
        EXPECT_NE(outcome.code(), StatusCode::kParityInconsistent) << context;
        const std::vector<std::vector<std::uint8_t>> allowed =
            s.op == Op::kFold
                ? std::vector<std::vector<std::uint8_t>>{new_bytes()}
                : std::vector<std::vector<std::uint8_t>>{old_bytes(),
                                                         new_bytes()};
        expect_victim_in(store, allowed, context);
        expect_media_in_step(f, failed, allowed, context);
        expect_restores_consistent(*f.store, failed, context);
      }
    EXPECT_GT(exercised, 0u) << describe(s);
  }
}

}  // namespace
}  // namespace pdl::io
