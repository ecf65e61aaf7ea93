#pragma once
// Fleet-level workload driver: io::WorkloadDriver's traffic engine
// (thread pool, read/write mix, uniform / sequential / YCSB-zipfian
// addresses, canonical-content verification, latency sampling) pointed
// at a fleet::Fleet instead of one StripeStore -- so one run's addresses
// span every shard through the fleet router, zipfian hot spots land
// wherever the shard map puts them, and the stats feed the fleet benches
// (foreground MB/s and p99 under a rebuilding shard, governed vs not).
//
// The option/stat/content vocabulary is the store-level driver's
// (io::WorkloadOptions, io::WorkloadStats, io::canonical_fill): a fleet
// phase and a store phase of the same bench report through identical
// fields, and canonical bytes written through the fleet verify through
// either front door.

#include <cstdint>

#include "fleet/fleet.hpp"
#include "io/workload_driver.hpp"

namespace pdl::fleet {

/// Writes canonical content (io::canonical_fill) to every fleet block
/// in [first, last) -- the usual seeding step before a verifying or
/// read-mostly run.
[[nodiscard]] Status fill_canonical(Fleet& fleet, std::uint64_t first,
                                    std::uint64_t last, std::uint64_t seed);

/// io::WorkloadDriver over a fleet: addresses are fleet blocks, and a
/// batch's reads go out as one Fleet::read_batch when any shard serves
/// asynchronously.  Everything else (mix, patterns, verification,
/// latency quantiles) is the store-level driver's.
class WorkloadDriver : public io::WorkloadDriver {
 public:
  /// The fleet must outlive the driver; run() may be called repeatedly
  /// (e.g. once per phase of a failure scenario).
  WorkloadDriver(Fleet& fleet, io::WorkloadOptions options);
};

}  // namespace pdl::fleet
