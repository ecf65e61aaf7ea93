#include "fleet/workload.hpp"

#include <memory>
#include <vector>

namespace pdl::fleet {

namespace {

/// The fleet as a driver target: units are fleet blocks.
class FleetTarget final : public io::WorkloadTarget {
 public:
  explicit FleetTarget(Fleet& fleet) : fleet_(fleet) {}
  std::uint64_t num_units() const override { return fleet_.num_blocks(); }
  std::uint32_t unit_bytes() const override { return fleet_.block_bytes(); }
  bool async() const override { return fleet_.any_async(); }
  Status read(std::uint64_t unit, std::span<std::uint8_t> out,
              io::ReadReceipt* receipt) override {
    return fleet_.read(unit, out, receipt);
  }
  Status write(std::uint64_t unit, std::span<const std::uint8_t> data,
               io::WriteReceipt* receipt) override {
    return fleet_.write(unit, data, receipt);
  }
  Status read_batch(std::span<const std::uint64_t> units,
                    std::span<std::uint8_t> out, std::span<Status> statuses,
                    std::span<io::ReadReceipt> receipts) override {
    return fleet_.read_batch(units, out, statuses, receipts);
  }

 private:
  Fleet& fleet_;
};

}  // namespace

Status fill_canonical(Fleet& fleet, std::uint64_t first, std::uint64_t last,
                      std::uint64_t seed) {
  std::vector<std::uint8_t> block(fleet.block_bytes());
  for (std::uint64_t b = first; b < last; ++b) {
    io::canonical_fill(b, seed, block);
    if (Status written = fleet.write(b, block); !written.ok())
      return written;
  }
  return OkStatus();
}

WorkloadDriver::WorkloadDriver(Fleet& fleet, io::WorkloadOptions options)
    : io::WorkloadDriver(std::make_unique<FleetTarget>(fleet), options) {}

}  // namespace pdl::fleet
