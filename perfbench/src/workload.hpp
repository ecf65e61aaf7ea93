#pragma once
// The three workloads: what they build, how their clients run, and the
// checks every run ends with.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "io/stripe_store.hpp"

namespace perfbench {

inline constexpr std::uint32_t kUnitBytes = 4096;
inline constexpr std::uint32_t kClients = 2;
inline constexpr std::uint64_t kRebuildSteps = 4;  // stripes per rebuild call

enum class TargetKind { kFileStore, kMemoryStore, kFleet };

/// One named workload.  Each measured phase is a loop of cycles: a
/// healthy window, then one disk fails for a degraded window, then it is
/// replaced and rebuilt under the running clients until healthy.
struct WorkloadSpec {
  const char* name;
  TargetKind kind;
  double read_fraction;
  bool zipf;               ///< zipfian theta 0.99, else uniform
  double healthy_s;        ///< healthy window per cycle
  double degraded_s;       ///< degraded window per cycle
};

[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// The front door the clients drive: a StripeStore or a Fleet.  Failure
/// and rebuild address the rebuilding store (the store itself, or fleet
/// shard 0).
class Target {
 public:
  virtual ~Target() = default;
  [[nodiscard]] virtual std::uint64_t units() const = 0;
  [[nodiscard]] virtual pdl::Status read(std::uint64_t unit,
                                         std::span<std::uint8_t> out,
                                         pdl::io::ReadReceipt* receipt) = 0;
  [[nodiscard]] virtual pdl::Status write(std::uint64_t unit,
                                          std::span<const std::uint8_t> data,
                                          pdl::io::WriteReceipt* receipt) = 0;
  [[nodiscard]] virtual pdl::Status fail_disk(pdl::io::DiskId disk) = 0;
  [[nodiscard]] virtual pdl::Status replace_disk(pdl::io::DiskId disk) = 0;
  [[nodiscard]] virtual pdl::Result<std::uint64_t> rebuild_some() = 0;
  [[nodiscard]] virtual bool healthy() const = 0;
  /// Makes media current (folds the cache's dirty table, if any).
  [[nodiscard]] virtual pdl::Status flush() = 0;
  /// Stripes whose parity disagrees with their data, over every store.
  [[nodiscard]] virtual pdl::Result<std::uint64_t> verify_stripes() = 0;
  /// Summed cache / integrity counters over every store.
  [[nodiscard]] virtual pdl::io::HotnessStats hotness() const = 0;
  [[nodiscard]] virtual pdl::io::IntegrityStats integrity() const = 0;
  /// The store that fails and rebuilds.
  [[nodiscard]] virtual const pdl::io::StripeStore& rebuilding_store()
      const = 0;
  /// The fleet, when the target is one.
  [[nodiscard]] virtual pdl::fleet::Fleet* fleet() noexcept { return nullptr; }
};

/// Wall time of one set-up, by stage.
struct SetupTimes {
  double array_create_s = 0;
  double store_create_s = 0;
  double fill_s = 0;
  [[nodiscard]] double total() const noexcept {
    return array_create_s + store_create_s + fill_s;
  }
};

/// Creates the workload's arrays and store or fleet under `data_dir`
/// (emptied first), wrapping every backend in a TimingBackend when
/// `timed`, and fills every unit with version 0 of the seed's content.
[[nodiscard]] pdl::Result<std::unique_ptr<Target>> set_up(
    const WorkloadSpec& spec, std::uint64_t seed, const std::string& data_dir,
    bool timed, std::uint32_t fill_threads, SetupTimes* times);

/// The addresses and operations of one client: it owns the units
/// congruent to its index modulo the client count, so it alone writes
/// them and always knows their current version.
class AddressStream {
 public:
  AddressStream(const WorkloadSpec& spec, std::uint64_t seed,
                std::uint64_t units, std::uint32_t client,
                std::uint32_t clients);
  struct Op {
    bool read;
    std::uint64_t unit;
  };
  Op next() noexcept;

 private:
  Rng rng_;
  double read_fraction_;
  std::uint32_t client_;
  std::uint32_t clients_;
  std::uint64_t owned_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<std::uint32_t> rank_to_index_;
};

/// What the clients and the controller saw in one measured phase.
/// Latencies are nanoseconds per call: read_ns / write_ns are direct
/// reads and writes issued while the array was healthy, busy_* the same
/// during degraded windows and rebuilds, and degraded_read_ns every read
/// the store served by reconstruction.
struct PhaseResult {
  double wall_s = 0;
  double healthy_s = 0;      ///< time in healthy windows
  double client_wall_s = 0;  ///< summed over clients
  std::vector<std::uint64_t> read_ns, degraded_read_ns, write_ns;
  std::vector<std::uint64_t> busy_read_ns, busy_write_ns;
  std::uint64_t ops = 0;          ///< operations issued
  std::uint64_t reads = 0, writes = 0;  ///< operations that returned OK
  std::uint64_t failed = 0;       ///< non-OK status or wrong bytes
  std::uint64_t degraded_reads = 0, degraded_fanin = 0;
  std::uint64_t write_units_read = 0, write_units_written = 0;
  std::vector<double> rebuild_mb_s;  ///< one per cycle
  std::vector<double> slice_mb_s;    ///< user MB/s of each 10 ms healthy slice
  std::vector<double> call_mb_s;     ///< rebuilt MB/s of each rebuild call
  double rebuilt_mb = 0, rebuild_s = 0;  ///< summed over cycles
  std::uint64_t rebuild_calls = 0, rebuild_stripes = 0;
  std::uint64_t cycles = 0;
  std::string error;  ///< controller failure, empty when none
  [[nodiscard]] double user_bytes() const noexcept {
    return static_cast<double>(reads + writes) * kUnitBytes;
  }
};

/// Per-unit current version; each client writes only the units it owns.
using Versions = std::vector<std::uint32_t>;
inline constexpr std::uint32_t kUnknownVersion = 0xffffffffu;

/// Runs the clients for `seconds` under the cycle plan; `first_disk`
/// rotates the failed disk between runs.  With `max_ops` set, clients
/// stop after that many operations each instead, and no disk fails.
PhaseResult run_phase(Target& target, const WorkloadSpec& spec,
                      std::uint64_t seed, double seconds,
                      std::uint32_t clients, Versions& versions,
                      std::uint32_t first_disk, std::uint64_t max_ops = 0);

/// End-of-run checks: a quiescent fail/replace/rebuild of one disk must
/// restore its checksum, every unit must read back its current version,
/// verify_stripes() must be 0 and the target healthy.  Returns the
/// number of failed checks plus wrong units; details go to `log`.
std::uint64_t final_checks(Target& target, std::uint64_t seed,
                           const Versions& versions, pdl::io::DiskId disk,
                           std::string* log);

/// Self-tests of the helpers plus the determinism check; 0 when all pass.
int run_self_test(const std::string& data_dir);

}  // namespace perfbench
