#pragma once
// Concurrent workload driver for the byte-level data path: a fixed pool
// of threads hammers a StripeStore with a configurable read/write mix
// over uniform, sequential, or zipfian address distributions, so one
// process can push millions of unit accesses through the store and
// measure healthy vs degraded vs rebuilding throughput.
//
// Content discipline: every write stores the canonical pattern for its
// logical address (a seeded splitmix64 stream), so concurrent writers
// racing on the same address still leave canonical bytes behind and
// reads can verify content integrity at any moment (verify_reads) --
// including degraded reads reconstructed from survivors mid-rebuild.
// A verification mismatch is counted, never asserted, so the driver is
// usable both as a benchmark loop and as a stress-test oracle.
//
// The driver is storage-substrate-agnostic: it hammers whatever
// DiskBackend the store was constructed over (memory, file images, a
// fault-injecting decorator), and backend kIoError statuses are tallied
// under `errors` rather than aborting the run.  It is also front-door-
// agnostic: the same loop drives any WorkloadTarget, so fleet::
// WorkloadDriver is this driver pointed at a fleet::Fleet.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "io/stripe_store.hpp"

namespace pdl::io {

enum class AccessPattern : std::uint8_t {
  kUniform = 0,     ///< independent uniform addresses
  kSequential = 1,  ///< per-thread contiguous scan, wrapping
  kZipfian = 2,     ///< YCSB-style zipfian (hot-spot) addresses
};

[[nodiscard]] const char* access_pattern_name(AccessPattern pattern) noexcept;

struct WorkloadOptions {
  std::uint32_t num_threads = 4;
  std::uint64_t ops_per_thread = 10000;
  double read_fraction = 0.7;        ///< probability an op is a read
  AccessPattern pattern = AccessPattern::kUniform;
  double zipf_theta = 0.99;          ///< zipfian skew (0 = uniform-ish)
  /// Addresses drawn per batch.  Against a synchronous backend the
  /// batch is issued back-to-back (queue depth is a modelling fiction);
  /// against an async backend (DiskBackend::async()) each thread's
  /// reads go out as ONE StripeStore::read_batch submission, so up to
  /// queue_depth ops are genuinely in flight per thread and the stats
  /// report the depth actually achieved.
  std::uint32_t queue_depth = 8;
  std::uint64_t seed = 1;
  /// Check every successful read against the canonical pattern.  Only
  /// meaningful once the addressed range holds canonical content (see
  /// fill_canonical / the write-side discipline).
  bool verify_reads = false;
};

struct WorkloadStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t direct_reads = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t rmw_writes = 0;
  std::uint64_t reconstruct_writes = 0;
  std::uint64_t unprotected_writes = 0;
  std::uint64_t data_loss_ops = 0;   ///< ops refused with kDataLoss
  std::uint64_t errors = 0;          ///< any other non-OK status
  std::uint64_t verify_failures = 0; ///< reads whose bytes were wrong
  std::uint64_t bytes_moved = 0;     ///< user payload (reads + writes)
  std::uint64_t read_batches = 0;    ///< batched read submissions issued
  std::uint64_t batched_reads = 0;   ///< reads carried by those submissions
  /// Caller-visible completion latency of every successful read, in
  /// microseconds (batched reads share their submission's wall time --
  /// that IS what the caller waited).  merge() concatenates.
  std::vector<std::uint32_t> read_latency_us;
  /// Caller-visible completion latency of every successful write, in
  /// microseconds (the full parity transaction -- RMW fan-in included --
  /// is what the caller waited).  merge() concatenates.
  std::vector<std::uint32_t> write_latency_us;
  double elapsed_seconds = 0;

  [[nodiscard]] double mb_per_second() const noexcept {
    return elapsed_seconds > 0
               ? static_cast<double>(bytes_moved) / 1e6 / elapsed_seconds
               : 0.0;
  }
  /// Mean ops actually in flight per batched submission -- the ACHIEVED
  /// queue depth, as opposed to WorkloadOptions::queue_depth, which is
  /// merely configured.  1.0 for a synchronous run (no batching).
  [[nodiscard]] double achieved_depth() const noexcept {
    return read_batches > 0 ? static_cast<double>(batched_reads) /
                                  static_cast<double>(read_batches)
                            : 1.0;
  }
  /// The p-quantile (0 <= p <= 1) of read_latency_us, or 0 with no
  /// samples.  p = 0.99 is the foreground-p99 the benches report.
  [[nodiscard]] std::uint32_t read_latency_quantile_us(double p) const;
  /// The p-quantile (0 <= p <= 1) of write_latency_us, or 0 with no
  /// samples.
  [[nodiscard]] std::uint32_t write_latency_quantile_us(double p) const;
  void merge(const WorkloadStats& other);
};

/// The canonical content of a logical unit under `seed`: what every
/// driver write stores and what verify_reads checks against.
void canonical_fill(std::uint64_t logical, std::uint64_t seed,
                    std::span<std::uint8_t> out) noexcept;

/// Writes canonical content to every logical unit in [first, last).
/// Handy to seed the store before a read-mostly or verifying run.
[[nodiscard]] Status fill_canonical(StripeStore& store, std::uint64_t first,
                                    std::uint64_t last, std::uint64_t seed);

/// The zipfian harmonic normalizer zeta(n, theta) = sum_{i=1..n}
/// i^-theta, cached process-wide per (n, theta): the sum is an O(n)
/// pass, noticeable on multi-million-unit spaces, and every driver over
/// the same geometry (multi-phase harnesses, fleet shards) would
/// otherwise pay it per construction.  Pure in its arguments, so the
/// cache also pins determinism: every caller sees the identical value.
[[nodiscard]] double zipf_zetan(std::uint64_t n, double theta);

/// What a WorkloadDriver drives: units 0 .. num_units()-1 of
/// unit_bytes() each, behind StripeStore-shaped read / write /
/// read_batch calls.  A StripeStore is one; fleet/workload.hpp adapts a
/// fleet::Fleet (fleet blocks as units).  Must be safe to call from many
/// threads at once.
class WorkloadTarget {
 public:
  virtual ~WorkloadTarget() = default;
  [[nodiscard]] virtual std::uint64_t num_units() const = 0;
  [[nodiscard]] virtual std::uint32_t unit_bytes() const = 0;
  /// Whether submissions are asynchronous somewhere below, so issuing a
  /// batch's reads as one read_batch buys real in-flight parallelism.
  [[nodiscard]] virtual bool async() const = 0;
  [[nodiscard]] virtual Status read(std::uint64_t unit,
                                    std::span<std::uint8_t> out,
                                    ReadReceipt* receipt) = 0;
  [[nodiscard]] virtual Status write(std::uint64_t unit,
                                     std::span<const std::uint8_t> data,
                                     WriteReceipt* receipt) = 0;
  [[nodiscard]] virtual Status read_batch(
      std::span<const std::uint64_t> units, std::span<std::uint8_t> out,
      std::span<Status> statuses, std::span<ReadReceipt> receipts) = 0;
};

class WorkloadDriver {
 public:
  /// The store must outlive the driver; run() may be called repeatedly
  /// (e.g. once per phase of a failure scenario).
  WorkloadDriver(StripeStore& store, WorkloadOptions options);
  /// Drives any target (whatever it wraps must outlive the driver).
  WorkloadDriver(std::unique_ptr<WorkloadTarget> target,
                 WorkloadOptions options);

  /// Spawns num_threads workers, runs ops_per_thread ops on each, joins,
  /// and returns the merged stats (elapsed_seconds is wall time of the
  /// whole run, counted once).
  [[nodiscard]] WorkloadStats run();

 private:
  std::unique_ptr<WorkloadTarget> target_;
  WorkloadOptions options_;
  // Precomputed zipfian parameters (YCSB ZipfianGenerator shape).
  double zipf_zetan_ = 0;
  double zipf_zeta2_ = 0;
  double zipf_alpha_ = 0;
  double zipf_eta_ = 0;

  void worker(std::uint32_t thread_index, WorkloadStats& stats) const;
  [[nodiscard]] std::uint64_t zipf_sample(double u) const noexcept;
};

}  // namespace pdl::io
