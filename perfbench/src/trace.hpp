#pragma once
// Span tracer of the traced run, and the timing DiskBackend decorator.
//
// Every span is one call from benchmark code into a library layer.  A
// thread-local stack of open spans gives each span its parent, so the
// backend calls a store call issues nest under it; a span's self time is
// its duration minus the time its children cover.  Aggregates are kept
// per thread and merged when the run ends; the first spans of each
// thread are also kept raw and can be written out as CSV.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "io/disk_backend.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kStoreRead,
  kStoreWrite,
  kStoreRebuild,
  kFleetRead,
  kFleetWrite,
  kFleetRebuild,
  kBackendRead,
  kBackendWrite,
  kBackendBatch,
  kJournalBegin,
  kJournalCommit,
  kBackendOther,
  kCount,
};
inline constexpr std::size_t kNumKinds =
    static_cast<std::size_t>(SpanKind::kCount);

const char* span_name(SpanKind kind) noexcept;
/// The layer a span's self time is charged to: "fleet", "io.store" or
/// "io.backend".
const char* span_layer(SpanKind kind) noexcept;

/// Traffic class of a backend call, taken from the span that issued it.
enum class IoUse : std::uint8_t { kFgRead, kFgWrite, kRebuild, kOther, kCount };
inline constexpr std::size_t kNumUses = static_cast<std::size_t>(IoUse::kCount);

/// One recorded span (times relative to the tracer's epoch).
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = top level
  SpanKind kind = SpanKind::kCount;
};

/// Everything one thread recorded.
struct ThreadTrace {
  bool client = false;  ///< a foreground client (counts toward coverage)
  std::uint32_t thread_index = 0;
  // Aggregates per span kind.
  std::uint64_t count[kNumKinds] = {};
  std::uint64_t self_ns[kNumKinds] = {};
  std::uint64_t top_level_ns = 0;  ///< summed durations of parentless spans
  std::vector<std::uint64_t> self_samples[kNumKinds];  ///< read/write only
  std::vector<std::uint64_t> rebuild_call_ns;  ///< *.rebuild_some durations
  // Backend counters per traffic class.
  std::uint64_t io_ops[kNumUses] = {};
  std::uint64_t io_busy_ns[kNumUses] = {};
  std::uint64_t io_bytes_written = 0;
  std::uint64_t journal_begins = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_ns = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_requests = 0;
  // Raw spans (capped) and the open-span stack.
  std::vector<Span> spans;
  struct Frame {
    SpanKind kind;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::uint32_t id;
  };
  Frame stack[16];
  std::uint32_t depth = 0;
  std::uint32_t next_id = 1;
};

/// Every thread's trace summed.  Self and covered times count client
/// threads only; latency samples come back sorted.
struct TraceTotals {
  std::uint64_t spans = 0;
  std::uint64_t covered_ns = 0;  ///< client time inside top-level spans
  std::uint64_t self_ns[kNumKinds] = {};
  std::uint64_t io_ops[kNumUses] = {};
  std::uint64_t io_busy_ns[kNumUses] = {};
  std::uint64_t io_bytes_written = 0;
  std::uint64_t journal_begins = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_ns = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_requests = 0;
  std::vector<std::uint64_t> read_self_ns, write_self_ns, rebuild_call_ns;

  /// Summed client self time of the spans charged to `layer`.
  [[nodiscard]] std::uint64_t layer_self_ns(const std::string& layer) const;
};

/// Owner of every thread's trace.  enable() / disable() bracket the
/// traced window; threads attach() once before issuing traced calls.
class Tracer {
 public:
  static Tracer& instance();

  /// Binds the calling thread to a fresh ThreadTrace.
  void attach(bool client);
  /// Unbinds the calling thread (its trace stays owned by the tracer).
  static void detach() noexcept;
  void enable() noexcept {
    epoch_ns_ = now_ns();
    enabled_.store(true, std::memory_order_release);
  }
  void disable() noexcept { enabled_.store(false, std::memory_order_release); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Drops every recorded trace.
  void reset();
  /// The recorded traces summed (call after the threads are joined).
  [[nodiscard]] TraceTotals totals() const;
  /// Writes the kept raw spans as CSV (thread,id,parent,span,start_ns,
  /// end_ns).  False on I/O failure.
  bool write_csv(const std::string& path) const;

  /// The calling thread's trace when tracing is on, else null.
  static ThreadTrace* current() noexcept;

 private:
  std::atomic<bool> enabled_{false};
  std::uint64_t epoch_ns_ = 0;
  std::mutex mutex_;  // guards traces_
  std::vector<std::unique_ptr<ThreadTrace>> traces_;
};

/// RAII span around one call into a layer; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
};

/// DiskBackend decorator that times every call into the inner backend
/// and counts its requests, bytes and journal records per traffic class.
/// It forwards every virtual, memory_view included, so the store keeps
/// the code path it takes over the bare backend: over a MemoryBackend it
/// serves from the views and the decorator records no data I/O.
class TimingBackend final : public pdl::io::DiskBackend {
 public:
  explicit TimingBackend(std::unique_ptr<pdl::io::DiskBackend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] pdl::Status open(
      const pdl::io::BackendGeometry& geometry) override;
  [[nodiscard]] pdl::Status read(pdl::io::DiskId disk, std::uint64_t offset,
                                 std::span<std::uint8_t> out) override;
  [[nodiscard]] pdl::Status write(
      pdl::io::DiskId disk, std::uint64_t offset,
      std::span<const std::uint8_t> data) override;
  [[nodiscard]] pdl::Status sync(pdl::io::DiskId disk) override;
  [[nodiscard]] pdl::Status discard(pdl::io::DiskId disk,
                                    std::uint8_t fill) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::span<std::uint8_t> memory_view(
      pdl::io::DiskId disk) noexcept override {
    return inner_->memory_view(disk);
  }
  [[nodiscard]] pdl::Status execute_batch(
      std::span<pdl::io::IoRequest> batch) override;
  [[nodiscard]] bool async() const noexcept override {
    return inner_->async();
  }
  [[nodiscard]] int native_handle(
      pdl::io::DiskId disk) const noexcept override {
    return inner_->native_handle(disk);
  }
  [[nodiscard]] std::uint32_t io_alignment() const noexcept override {
    return inner_->io_alignment();
  }
  [[nodiscard]] bool journaled() const noexcept override {
    return inner_->journaled();
  }
  [[nodiscard]] pdl::Result<std::uint64_t> journal_begin(
      std::span<const pdl::io::IoRequest> batch) override;
  [[nodiscard]] pdl::Status journal_commit(std::uint64_t token) override;

 private:
  std::unique_ptr<pdl::io::DiskBackend> inner_;
};

}  // namespace perfbench
