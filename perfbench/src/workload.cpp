#include "workload.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <thread>

#include "api/array.hpp"
#include "engine/engine.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using pdl::OkStatus;
using pdl::Result;
using pdl::Status;

constexpr std::uint64_t kStoreLogicalBytes = 136ull << 20;
constexpr std::uint64_t kFleetDiskBytes = 20ull << 20;
constexpr double kSliceS = 0.01;

constexpr WorkloadSpec kWorkloads[] = {
    {"oltp-file", TargetKind::kFileStore, 0.5, false, 0.3, 0.15},
    {"hot-mem", TargetKind::kMemoryStore, 0.3, true, 0.25, 0.25},
    {"rebuild-fleet", TargetKind::kFleet, 0.5, false, 0.25, 0.3},
};

class StoreTarget final : public Target {
 public:
  explicit StoreTarget(pdl::io::StripeStore store) : store_(std::move(store)) {}

  std::uint64_t units() const override { return store_.num_logical_units(); }
  Status read(std::uint64_t unit, std::span<std::uint8_t> out,
              pdl::io::ReadReceipt* receipt) override {
    ScopedSpan span(SpanKind::kStoreRead);
    return store_.read(unit, out, receipt);
  }
  Status write(std::uint64_t unit, std::span<const std::uint8_t> data,
               pdl::io::WriteReceipt* receipt) override {
    ScopedSpan span(SpanKind::kStoreWrite);
    return store_.write(unit, data, receipt);
  }
  Status fail_disk(pdl::io::DiskId disk) override {
    return store_.fail_disk(disk);
  }
  Status replace_disk(pdl::io::DiskId disk) override {
    return store_.replace_disk(disk);
  }
  Result<std::uint64_t> rebuild_some() override {
    ScopedSpan span(SpanKind::kStoreRebuild);
    return store_.rebuild_some(kRebuildSteps);
  }
  bool healthy() const override { return store_.array().healthy(); }
  Status flush() override { return store_.flush_cache(); }
  Result<std::uint64_t> verify_stripes() override {
    return store_.verify_stripes();
  }
  pdl::io::HotnessStats hotness() const override {
    return store_.hotness_stats();
  }
  pdl::io::IntegrityStats integrity() const override {
    return store_.integrity_stats();
  }
  const pdl::io::StripeStore& rebuilding_store() const override {
    return store_;
  }

 private:
  pdl::io::StripeStore store_;
};

/// The fleet fails and rebuilds disks of shard 0 only; shard 1 keeps
/// serving beside it.
class FleetTarget final : public Target {
 public:
  explicit FleetTarget(pdl::fleet::Fleet fleet) : fleet_(std::move(fleet)) {}

  std::uint64_t units() const override { return fleet_.num_blocks(); }
  Status read(std::uint64_t unit, std::span<std::uint8_t> out,
              pdl::io::ReadReceipt* receipt) override {
    ScopedSpan span(SpanKind::kFleetRead);
    return fleet_.read(unit, out, receipt);
  }
  Status write(std::uint64_t unit, std::span<const std::uint8_t> data,
               pdl::io::WriteReceipt* receipt) override {
    ScopedSpan span(SpanKind::kFleetWrite);
    return fleet_.write(unit, data, receipt);
  }
  Status fail_disk(pdl::io::DiskId disk) override {
    return fleet_.fail_disk(0, disk);
  }
  Status replace_disk(pdl::io::DiskId disk) override {
    return fleet_.replace_disk(0, disk);
  }
  Result<std::uint64_t> rebuild_some() override {
    ScopedSpan span(SpanKind::kFleetRebuild);
    return fleet_.rebuild_some(0, kRebuildSteps);
  }
  bool healthy() const override { return fleet_.healthy(); }
  Status flush() override { return OkStatus(); }
  Result<std::uint64_t> verify_stripes() override {
    std::uint64_t bad = 0;
    for (std::uint32_t s = 0; s < fleet_.num_shards(); ++s) {
      // Fleet exposes shards read-only; verify_stripes only reads media
      // (and folds a cache the fleet's shards do not enable), and the
      // fleet is quiescent here, so calling it behind the fleet is safe.
      auto& store = const_cast<pdl::io::StripeStore&>(fleet_.shard(s));
      auto r = store.verify_stripes();
      if (!r.ok()) return r.status();
      bad += *r;
    }
    return bad;
  }
  pdl::io::HotnessStats hotness() const override {
    pdl::io::HotnessStats sum;
    for (const auto& h : fleet_.hotness_report()) {
      sum.hits += h.hits;
      sum.misses += h.misses;
      sum.evictions += h.evictions;
      sum.absorbed_writes += h.absorbed_writes;
      sum.folds += h.folds;
      sum.folded_units += h.folded_units;
    }
    return sum;
  }
  pdl::io::IntegrityStats integrity() const override {
    pdl::io::IntegrityStats sum;
    for (std::uint32_t s = 0; s < fleet_.num_shards(); ++s) {
      const auto st = fleet_.shard(s).integrity_stats();
      sum.verified += st.verified;
      sum.mismatches += st.mismatches;
    }
    return sum;
  }
  const pdl::io::StripeStore& rebuilding_store() const override {
    return fleet_.shard(0);
  }
  pdl::fleet::Fleet* fleet() noexcept override { return &fleet_; }

 private:
  pdl::fleet::Fleet fleet_;
};

std::uint32_t iterations_for(std::uint64_t bytes,
                             std::uint64_t units_per_iteration) {
  const std::uint64_t per_iteration = units_per_iteration * kUnitBytes;
  return static_cast<std::uint32_t>((bytes + per_iteration - 1) /
                                    per_iteration);
}

Result<pdl::api::Array> make_array(pdl::engine::Engine& engine,
                                   std::uint32_t v, std::uint32_t k,
                                   pdl::core::CodecKind codec,
                                   bool integrity) {
  return pdl::api::Array::create_with(
      engine, {.num_disks = v, .stripe_size = k}, {},
      {.codec = codec, .integrity = integrity});
}

/// Writes version 0 of every unit, `threads` writers in parallel.
Status fill(Target& target, std::uint64_t seed, std::uint32_t threads) {
  const Content content(seed, kUnitBytes);
  std::vector<Status> results(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      std::vector<std::uint8_t> buf(kUnitBytes);
      for (std::uint64_t u = t; u < target.units(); u += threads) {
        content.fill(u, 0, buf);
        if (Status s = target.write(u, buf, nullptr); !s.ok()) {
          results[t] = s;
          return;
        }
      }
    });
  for (auto& w : workers) w.join();
  for (const Status& s : results)
    if (!s.ok()) return s;
  return OkStatus();
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

Result<std::unique_ptr<Target>> set_up(const WorkloadSpec& spec,
                                       std::uint64_t seed,
                                       const std::string& data_dir,
                                       bool timed, std::uint32_t fill_threads,
                                       SetupTimes* times) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(data_dir, ec);
  fs::create_directories(data_dir, ec);
  if (ec) return Status::io_error("cannot create " + data_dir);
  auto wrap = [timed](std::unique_ptr<pdl::io::DiskBackend> backend)
      -> std::unique_ptr<pdl::io::DiskBackend> {
    if (!timed) return backend;
    return std::make_unique<TimingBackend>(std::move(backend));
  };
  auto file_backend = [&](const std::string& name) {
    return wrap(pdl::io::make_file_backend(
        {.directory = (fs::path(data_dir) / name).string()}));
  };

  // A fresh engine per set-up: every set-up pays the layout construction
  // a new process pays, instead of hitting a warm layout cache.
  pdl::engine::Engine engine;
  std::unique_ptr<Target> target;
  std::uint64_t t0 = now_ns();
  if (spec.kind == TargetKind::kFleet) {
    auto a0 = make_array(engine, 17, 5, pdl::core::CodecKind::kXorParity,
                         false);
    if (!a0.ok()) return a0.status();
    auto a1 = make_array(engine, 16, 6, pdl::core::CodecKind::kReedSolomonPQ,
                         false);
    if (!a1.ok()) return a1.status();
    times->array_create_s = seconds_since(t0);
    t0 = now_ns();
    const std::uint32_t it0 =
        iterations_for(kFleetDiskBytes, a0->units_per_disk());
    const std::uint32_t it1 =
        iterations_for(kFleetDiskBytes, a1->units_per_disk());
    std::vector<pdl::fleet::ShardSpec> shards;
    shards.push_back({.array = std::move(a0).value(),
                      .iterations = it0,
                      .backend = file_backend("shard0")});
    shards.push_back({.array = std::move(a1).value(),
                      .iterations = it1,
                      .backend = file_backend("shard1")});
    pdl::fleet::FleetOptions options;
    options.block_bytes = kUnitBytes;
    options.governor.policy = pdl::fleet::GovernorPolicy::kFifo;
    options.governor.rebuild_bytes_per_sec = 0;  // unlimited
    auto fleet = pdl::fleet::Fleet::create(std::move(shards), options);
    if (!fleet.ok()) return fleet.status();
    target = std::make_unique<FleetTarget>(std::move(fleet).value());
  } else {
    const bool file = spec.kind == TargetKind::kFileStore;
    auto array = make_array(engine, 17, 5,
                            file ? pdl::core::CodecKind::kXorParity
                                 : pdl::core::CodecKind::kReedSolomonPQ,
                            file);
    if (!array.ok()) return array.status();
    times->array_create_s = seconds_since(t0);
    t0 = now_ns();
    pdl::io::StripeStoreOptions options;
    options.unit_bytes = kUnitBytes;
    options.iterations =
        iterations_for(kStoreLogicalBytes, array->data_units_per_iteration());
    options.cache.enabled = !file;
    auto store = pdl::io::StripeStore::create(
        std::move(array).value(), options,
        file ? file_backend("store") : wrap(pdl::io::make_memory_backend()));
    if (!store.ok()) return store.status();
    target = std::make_unique<StoreTarget>(std::move(store).value());
  }
  times->store_create_s = seconds_since(t0);
  t0 = now_ns();
  if (Status s = fill(*target, seed, fill_threads); !s.ok()) return s;
  times->fill_s = seconds_since(t0);
  return target;
}

AddressStream::AddressStream(const WorkloadSpec& spec, std::uint64_t seed,
                             std::uint64_t units, std::uint32_t client,
                             std::uint32_t clients)
    : rng_(mix64(seed) ^ mix64(0x636c69656e74ull + client)),
      read_fraction_(spec.read_fraction), client_(client), clients_(clients),
      owned_((units - client + clients - 1) / clients) {
  if (!spec.zipf) return;
  zipf_ = std::make_unique<Zipf>(owned_, 0.99);
  // Hot ranks land on scattered units, not on the first stripes.
  rank_to_index_.resize(owned_);
  std::iota(rank_to_index_.begin(), rank_to_index_.end(), 0u);
  Rng shuffle(seed ^ 0x7065726dull ^ client);
  for (std::uint64_t i = owned_; i > 1; --i)
    std::swap(rank_to_index_[i - 1], rank_to_index_[shuffle.below(i)]);
}

AddressStream::Op AddressStream::next() noexcept {
  const bool read = rng_.unit() < read_fraction_;
  const std::uint64_t index =
      zipf_ ? rank_to_index_[zipf_->next(rng_)] : rng_.below(owned_);
  return {read, index * clients_ + client_};
}

namespace {

/// What the controller tells the clients: the array's phase, or stop.
enum Phase : int { kHealthy = 0, kDegraded = 1, kRebuilding = 2, kStop = 3 };

struct ClientOut {
  std::vector<std::uint64_t> read_ns, degraded_read_ns, write_ns;
  std::vector<std::uint64_t> busy_read_ns, busy_write_ns;
  std::uint64_t reads = 0, writes = 0, failed = 0;
  std::uint64_t degraded_fanin = 0;
  std::uint64_t write_units_read = 0, write_units_written = 0;
  std::uint64_t wall_ns = 0;
  std::string first_error;
  /// Operations issued so far, read by the controller per window.
  alignas(64) std::atomic<std::uint64_t> done{0};

  void note_failure(const char* op, std::uint64_t unit,
                    const std::string& why) {
    ++failed;
    if (first_error.empty())
      first_error = std::string(op) + " " + std::to_string(unit) + ": " + why;
  }
};

void client_loop(Target& target, const WorkloadSpec& spec, std::uint64_t seed,
                 std::uint32_t client, std::uint32_t clients,
                 Versions& versions,
                 const std::atomic<int>& phase, std::uint64_t max_ops,
                 bool traced, ClientOut& out) {
  if (traced) Tracer::instance().attach(true);
  const Content content(seed, kUnitBytes);
  AddressStream stream(spec, seed, target.units(), client, clients);
  std::vector<std::uint8_t> buf(kUnitBytes);
  pdl::io::ReadReceipt rr;
  pdl::io::WriteReceipt wr;
  const std::uint64_t start = now_ns();
  std::uint64_t n = 0;
  for (; max_ops == 0 || n < max_ops; ++n) {
    out.done.store(n, std::memory_order_relaxed);
    const int now_phase = phase.load(std::memory_order_relaxed);
    if (now_phase == kStop) break;
    const bool healthy = now_phase == kHealthy;
    const AddressStream::Op op = stream.next();
    std::uint32_t& version = versions[op.unit];
    if (op.read) {
      const std::uint64_t t0 = now_ns();
      const Status st = target.read(op.unit, buf, &rr);
      const std::uint64_t t1 = now_ns();
      if (!st.ok()) {
        out.note_failure("read", op.unit, st.to_string());
        continue;
      }
      ++out.reads;
      if (rr.kind != pdl::api::ReadPlan::Kind::kDirect) {
        out.degraded_read_ns.push_back(t1 - t0);
        out.degraded_fanin += rr.num_touched;
      } else {
        (healthy ? out.read_ns : out.busy_read_ns).push_back(t1 - t0);
      }
      if (version != kUnknownVersion && !content.matches(op.unit, version, buf))
        out.note_failure("read", op.unit, "wrong bytes");
    } else {
      const std::uint32_t next = version == kUnknownVersion ? 1 : version + 1;
      content.fill(op.unit, next, buf);
      const std::uint64_t t0 = now_ns();
      const Status st = target.write(op.unit, buf, &wr);
      const std::uint64_t t1 = now_ns();
      if (!st.ok()) {
        out.note_failure("write", op.unit, st.to_string());
        version = kUnknownVersion;  // the unit's bytes are now unspecified
        continue;
      }
      version = next;
      ++out.writes;
      (healthy ? out.write_ns : out.busy_write_ns).push_back(t1 - t0);
      out.write_units_read += wr.num_reads;
      out.write_units_written += wr.num_writes;
    }
  }
  out.done.store(n, std::memory_order_relaxed);
  out.wall_ns = now_ns() - start;
  if (traced) Tracer::detach();
}

void sleep_s(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Rebuilds the failed disk to health; false (with `error`) on failure.
bool rebuild_to_health(Target& target, PhaseResult* r, std::string* error) {
  const double step_mb = static_cast<double>(
      target.rebuilding_store().iterations()) * kUnitBytes / 1e6;
  for (;;) {
    const std::uint64_t t0 = now_ns();
    auto step = target.rebuild_some();
    if (r && step.ok() && *step > 0)
      r->call_mb_s.push_back(static_cast<double>(*step) * step_mb /
                             seconds_since(t0));
    if (r) ++r->rebuild_calls;
    if (!step.ok()) {
      *error = "rebuild_some: " + step.status().to_string();
      return false;
    }
    if (r) r->rebuild_stripes += *step;
    if (*step == 0) break;
  }
  if (!target.healthy()) {
    *error = "rebuild made no progress but the array is not healthy";
    return false;
  }
  return true;
}

/// The cycle plan: healthy window, fail, degraded window, replace,
/// rebuild to health; repeated until `seconds` have passed.
void control_cycles(Target& target, const WorkloadSpec& spec, double seconds,
                    std::uint32_t first_disk, std::atomic<int>& phase,
                    const std::vector<ClientOut>& outs, PhaseResult& r) {
  const std::uint64_t start = now_ns();
  const std::uint32_t disks = target.rebuilding_store().array().num_disks();
  const double disk_mb =
      static_cast<double>(target.rebuilding_store().disk_bytes()) / 1e6;
  auto done = [&outs] {
    std::uint64_t n = 0;
    for (const ClientOut& o : outs) n += o.done.load(std::memory_order_relaxed);
    return n;
  };
  // Healthy windows are cut into 10 ms slices; a slice's user MB/s is a
  // sample of fg_mb_s.
  auto healthy_for = [&](double s) {
    const std::uint64_t t0 = now_ns();
    while (seconds_since(t0) + kSliceS < s) {
      const std::uint64_t s0 = now_ns();
      const std::uint64_t n0 = done();
      sleep_s(kSliceS);
      r.slice_mb_s.push_back(static_cast<double>(done() - n0) * kUnitBytes /
                             1e6 / seconds_since(s0));
    }
    sleep_s(s - seconds_since(t0));
    r.healthy_s += seconds_since(t0);
  };
  for (;;) {
    const double remaining = seconds - seconds_since(start);
    if (r.cycles > 0 && remaining < spec.healthy_s + spec.degraded_s) {
      healthy_for(remaining);
      return;
    }
    healthy_for(spec.healthy_s);
    const auto disk =
        static_cast<pdl::io::DiskId>((first_disk + r.cycles) % disks);
    phase.store(kDegraded, std::memory_order_relaxed);
    if (Status s = target.fail_disk(disk); !s.ok()) {
      r.error = "fail_disk: " + s.to_string();
      return;
    }
    sleep_s(spec.degraded_s);
    phase.store(kRebuilding, std::memory_order_relaxed);
    if (Status s = target.replace_disk(disk); !s.ok()) {
      r.error = "replace_disk: " + s.to_string();
      return;
    }
    const std::uint64_t t0 = now_ns();
    if (!rebuild_to_health(target, &r, &r.error)) return;
    const double took = seconds_since(t0);
    phase.store(kHealthy, std::memory_order_relaxed);
    r.rebuild_mb_s.push_back(disk_mb / took);
    r.rebuilt_mb += disk_mb;
    r.rebuild_s += took;
    ++r.cycles;
  }
}

}  // namespace

PhaseResult run_phase(Target& target, const WorkloadSpec& spec,
                      std::uint64_t seed, double seconds,
                      std::uint32_t clients,
                      Versions& versions, std::uint32_t first_disk,
                      std::uint64_t max_ops) {
  PhaseResult r;
  const bool traced = Tracer::instance().enabled();
  std::atomic<int> phase{kHealthy};
  std::vector<ClientOut> outs(clients);
  std::vector<std::thread> threads;
  const std::uint64_t start = now_ns();
  for (std::uint32_t c = 0; c < clients; ++c)
    threads.emplace_back(client_loop, std::ref(target), std::cref(spec), seed,
                         c, clients, std::ref(versions),
                         std::cref(phase), max_ops, traced, std::ref(outs[c]));
  if (max_ops == 0) {
    control_cycles(target, spec, seconds, first_disk, phase, outs, r);
    phase.store(kStop, std::memory_order_relaxed);
  }
  for (auto& t : threads) t.join();
  r.wall_s = seconds_since(start);
  if (max_ops != 0) r.healthy_s = r.wall_s;

  auto append = [](std::vector<std::uint64_t>& to,
                   const std::vector<std::uint64_t>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const ClientOut& o : outs) {
    append(r.read_ns, o.read_ns);
    append(r.degraded_read_ns, o.degraded_read_ns);
    append(r.write_ns, o.write_ns);
    append(r.busy_read_ns, o.busy_read_ns);
    append(r.busy_write_ns, o.busy_write_ns);
    r.ops += o.done.load(std::memory_order_relaxed);
    r.reads += o.reads;
    r.writes += o.writes;
    r.failed += o.failed;
    r.degraded_fanin += o.degraded_fanin;
    r.write_units_read += o.write_units_read;
    r.write_units_written += o.write_units_written;
    r.client_wall_s += static_cast<double>(o.wall_ns) * 1e-9;
    if (!o.first_error.empty())
      std::fprintf(stderr, "client: first failure: %s\n",
                   o.first_error.c_str());
  }
  r.degraded_reads = r.degraded_read_ns.size();
  return r;
}

std::uint64_t final_checks(Target& target, std::uint64_t seed,
                           const Versions& versions, pdl::io::DiskId disk,
                           std::string* log) {
  std::uint64_t bad = 0;
  auto fail = [&](const std::string& what) {
    ++bad;
    *log += what + "\n";
  };
  if (!target.healthy()) fail("array not healthy after the measured phase");

  // Quiescent fail -> replace -> rebuild must restore the disk exactly.
  if (Status s = target.flush(); !s.ok()) fail("flush: " + s.to_string());
  const auto before = target.rebuilding_store().checksum_disk(disk);
  std::string error;
  if (!before.ok()) {
    fail("checksum_disk: " + before.status().to_string());
  } else if (Status s = target.fail_disk(disk); !s.ok()) {
    fail("fail_disk: " + s.to_string());
  } else if (Status s2 = target.replace_disk(disk); !s2.ok()) {
    fail("replace_disk: " + s2.to_string());
  } else if (!rebuild_to_health(target, nullptr, &error)) {
    fail(error);
  } else {
    const auto after = target.rebuilding_store().checksum_disk(disk);
    if (!after.ok() || *after != *before)
      fail("rebuilt disk " + std::to_string(disk) +
           " differs from its pre-failure checksum");
  }

  // Full sweep: every unit reads back its current version.
  const Content content(seed, kUnitBytes);
  std::vector<std::uint8_t> buf(kUnitBytes);
  std::uint64_t wrong = 0;
  for (std::uint64_t u = 0; u < target.units(); ++u) {
    if (versions[u] == kUnknownVersion) continue;
    if (!target.read(u, buf, nullptr).ok() ||
        !content.matches(u, versions[u], buf))
      ++wrong;
  }
  if (wrong > 0) {
    bad += wrong - 1;
    fail("sweep: " + std::to_string(wrong) + " units read back wrong");
  }

  const auto inconsistent = target.verify_stripes();
  if (!inconsistent.ok())
    fail("verify_stripes: " + inconsistent.status().to_string());
  else if (*inconsistent != 0)
    fail("verify_stripes: " + std::to_string(*inconsistent) +
         " inconsistent stripes");
  if (!target.healthy()) fail("array not healthy after the sweep");
  return bad;
}

}  // namespace perfbench
