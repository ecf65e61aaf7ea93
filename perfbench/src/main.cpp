// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--data-dir DIR] [--trace-out FILE]
//   perfbench --self-test [--data-dir DIR]
//
// Closed-loop clients drive the public io::StripeStore / fleet::Fleet
// front doors, verify every byte they read, and the run ends with a full
// sweep.  --trace 0 prints the end-to-end metrics; --trace 1 runs the
// workload twice (untraced, then traced through the span tracer and the
// TimingBackend decorator) and prints the per-layer metrics.  The last
// line of standard output is the result object.  See README.md.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/crc32c.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kSetups = 3;           // untraced run
constexpr std::uint64_t kWarmupOpsPerClient = 5000;
constexpr std::size_t kReplayAddresses = 100000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  std::string data_dir = ".bench_build/perfbench-data";
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (!(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (a->trace != 0 && a->trace != 1) return false;
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return a->self_test || !a->workload.empty();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sorts a latency sample and prints its size, p50, p90, p99 and the
/// highest percentile with ten samples beyond it.
void summarize(const char* name, std::vector<std::uint64_t>& ns) {
  std::sort(ns.begin(), ns.end());
  std::printf("# %-13s n=%-9zu p50=%.2fus p90=%.2fus p99=%.2fus max=%.2fus "
              "highest-supported=%s\n",
              name, ns.size(), nearest_rank(ns, 0.5) * 1e-3,
              nearest_rank(ns, 0.9) * 1e-3, nearest_rank(ns, 0.99) * 1e-3,
              ns.empty() ? 0.0 : ns.back() * 1e-3,
              highest_supported_percentile(ns.size()));
}

double us_at(const std::vector<std::uint64_t>& sorted, double q) {
  return static_cast<double>(nearest_rank(sorted, q)) * 1e-3;
}

/// Foreground user MB/s: the median over the 10 ms slices of the healthy
/// windows, so slices in which the host took the CPU away move it little.
double fg_mb_s(const PhaseResult& p) { return median(p.slice_mb_s); }

/// A set-up the workload runs on, with the current version of every unit.
struct Instance {
  std::unique_ptr<Target> target;
  Versions versions;
};

bool make_instance(const WorkloadSpec& spec, const Args& a, bool timed,
                   Instance* inst, SetupTimes* times) {
  inst->target.reset();  // free the previous set-up first
  auto t = set_up(spec, a.seed, a.data_dir, timed, kClients, times);
  if (!t.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", t.status().to_string().c_str());
    return false;
  }
  inst->target = std::move(t).value();
  inst->versions.assign(inst->target->units(), 0);
  return true;
}

std::uint32_t first_disk(const Target& t, std::uint64_t seed) {
  return static_cast<std::uint32_t>(
      mix64(seed) % t.rebuilding_store().array().num_disks());
}

/// Lets lazy set-up finish and caches fill before anything is timed: the
/// first operations of the measured stream, whose writes the version
/// table records like any other.
void warm_up(const WorkloadSpec& spec, const Args& a, Instance& inst) {
  run_phase(*inst.target, spec, a.seed, 0, kClients, inst.versions, 0,
            kWarmupOpsPerClient);
}

/// The measured phase on one instance (traced when `traced`).  Returns
/// the failures it saw.
std::uint64_t measure(const WorkloadSpec& spec, const Args& a, Instance& inst,
                      double seconds, bool traced, PhaseResult* out) {
  Target& t = *inst.target;
  if (traced) {
    Tracer::instance().attach(false);
    Tracer::instance().enable();
  }
  *out = run_phase(t, spec, a.seed, seconds, kClients, inst.versions,
                   first_disk(t, a.seed));
  if (traced) {
    Tracer::instance().disable();
    Tracer::detach();
  }
  std::uint64_t failed = out->failed;
  if (!out->error.empty()) {
    std::fprintf(stderr, "controller: %s\n", out->error.c_str());
    ++failed;
  }
  return failed;
}

std::uint64_t check_instance(Instance& inst, const Args& a,
                             const PhaseResult& phase) {
  Target& t = *inst.target;
  const auto disks = t.rebuilding_store().array().num_disks();
  const auto disk = static_cast<pdl::io::DiskId>(
      (first_disk(t, a.seed) + phase.cycles) % disks);
  std::string log;
  const std::uint64_t bad = final_checks(t, a.seed, inst.versions, disk, &log);
  if (bad > 0) std::fprintf(stderr, "final checks failed:\n%s", log.c_str());
  std::printf("# final checks: %s (quiescent rebuild of disk %u, full sweep "
              "of %" PRIu64 " units, verify_stripes)\n",
              bad == 0 ? "clean" : "FAILED", disk, t.units());
  return bad;
}

void print_phase(const PhaseResult& p) {
  std::printf("# phase: %.2fs wall (%.2fs healthy, %.2fs rebuilding), "
              "%" PRIu64 " reads, %" PRIu64 " writes, %" PRIu64
              " degraded reads, %" PRIu64 " cycles, %" PRIu64
              " failed; whole-phase %.1f MB/s\n",
              p.wall_s, p.healthy_s, p.rebuild_s, p.reads, p.writes,
              p.degraded_reads, p.cycles, p.failed,
              p.user_bytes() / 1e6 / p.wall_s);
  std::printf("# rebuild under load: %.1f MB/s overall, %.1f MB/s median "
              "per rebuild_some call; per cycle:",
              ratio(p.rebuilt_mb, p.rebuild_s), median(p.call_mb_s));
  for (double r : p.rebuild_mb_s) std::printf(" %.0f", r);
  std::printf("\n");
}

// ------------------------------------------------------------ trace 0

int run_untraced(const WorkloadSpec& spec, const Args& a) {
  Instance inst;
  std::vector<double> setup_s;
  for (std::uint32_t i = 0; i < kSetups; ++i) {
    SetupTimes times;
    if (!make_instance(spec, a, false, &inst, &times)) return 1;
    setup_s.push_back(times.total());
  }
  warm_up(spec, a, inst);
  PhaseResult p;
  std::uint64_t failed = measure(spec, a, inst, a.seconds, false, &p);
  failed += check_instance(inst, a, p);
  print_phase(p);
  summarize("read", p.read_ns);
  summarize("degraded_read", p.degraded_read_ns);
  summarize("write", p.write_ns);
  summarize("busy_read", p.busy_read_ns);
  summarize("busy_write", p.busy_write_ns);
  const std::uint64_t attempted = p.ops + inst.target->units();
  std::printf("# failed_op_ratio=%.6g (%" PRIu64 "/%" PRIu64 ")\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              failed, attempted);
  std::printf("# fg_mb_s=%.2f (median over %zu healthy 10 ms slices)\n",
              fg_mb_s(p), p.slice_mb_s.size());

  Metrics m;
  m["setup_s"] = {median(setup_s), "s"};
  m["read_p50_us"] = {us_at(p.read_ns, 0.5), "us"};
  m["read_p90_us"] = {us_at(p.read_ns, 0.9), "us"};
  m["write_p50_us"] = {us_at(p.write_ns, 0.5), "us"};
  m["write_p90_us"] = {us_at(p.write_ns, 0.9), "us"};
  m["degraded_read_p50_us"] = {us_at(p.degraded_read_ns, 0.5), "us"};
  m["degraded_read_p90_us"] = {us_at(p.degraded_read_ns, 0.9), "us"};
  std::printf("%s\n", result_json(failed == 0, attempted, failed, m).c_str());
  return failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------ trace 1

/// Keeps a benchmark loop's results observable.
volatile std::uint64_t g_sink = 0;

/// Median over `rounds` of the mean time per call of `body(i)` over
/// `n` calls, in nanoseconds.
template <class F>
double time_per_call_ns(std::size_t n, F&& body, int rounds = 5) {
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) body(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(n));
  }
  return median(per_call);
}

/// Single-thread replay of the run's address stream against the
/// quiescent arrays: routing, planning, mapping, codec and CRC costs.
void layer_microbench(Target& t, const WorkloadSpec& spec, const Args& a,
                      Metrics& m) {
  struct Addr {
    const pdl::api::Array* array;
    std::uint64_t logical;
    std::uint64_t block;
  };
  std::vector<Addr> addrs;
  AddressStream stream(spec, a.seed, t.units(), 0, kClients);
  pdl::fleet::Fleet* fleet = t.fleet();
  for (std::size_t i = 0; i < kReplayAddresses; ++i) {
    const std::uint64_t block = stream.next().unit;
    if (fleet != nullptr) {
      const auto route = fleet->route_of(block);
      if (!route.ok()) continue;
      addrs.push_back(
          {&fleet->shard(route->shard).array(), route->unit, block});
    } else {
      addrs.push_back({&t.rebuilding_store().array(), block, block});
    }
  }
  const std::size_t n = addrs.size();
  std::array<pdl::api::Physical, 64> phys;
  std::array<std::uint32_t, 64> index;

  // A rate, not a time, so that it reads 0 where there is no fleet.
  m["fleet.routes_per_us"] = {
      fleet == nullptr ? 0.0 : 1e3 / time_per_call_ns(n, [&](std::size_t i) {
        g_sink = g_sink + fleet->route_of(addrs[i].block)->unit;
      }),
      "1/us"};
  m["api.locate_ns"] = {time_per_call_ns(n, [&](std::size_t i) {
                          auto plan = addrs[i].array->locate(
                              addrs[i].logical, phys, index);
                          g_sink = g_sink + plan->target.offset;
                        }),
                        "ns"};
  m["api.plan_write_ns"] = {time_per_call_ns(n, [&](std::size_t i) {
                              auto plan = addrs[i].array->plan_write(
                                  addrs[i].logical, phys, index);
                              g_sink = g_sink + plan->data.offset;
                            }),
                            "ns"};
  m["layout.map_ns"] = {time_per_call_ns(n, [&](std::size_t i) {
                          g_sink = g_sink + addrs[i].array->mapper()
                                                .map(addrs[i].logical)
                                                .offset;
                        }),
                        "ns"};

  // plan_rebuild after one failed-and-replaced disk, as rebuild_some sees
  // it on every call.
  pdl::api::Array copy = t.rebuilding_store().array();
  std::vector<double> plan_us;
  double steps = 0;
  if (copy.fail_disk(0).ok() && copy.replace_disk(0).ok()) {
    for (int r = 0; r < 5; ++r) {
      const std::uint64_t t0 = now_ns();
      auto plan = copy.plan_rebuild();
      plan_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (plan.ok()) steps = static_cast<double>(plan->steps.size());
    }
  }
  m["api.plan_rebuild_us"] = {median(plan_us), "us"};
  m["api.plan_rebuild.steps"] = {steps, "count"};

  // Codec and CRC at the workload's unit size and stripe width.
  const pdl::api::Array& array = t.rebuilding_store().array();
  const pdl::core::Codec& codec = array.codec();
  const std::uint32_t width = array.max_stripe_size();
  const std::uint32_t kd = width - codec.num_parity();
  std::vector<std::vector<std::uint8_t>> units(
      width, std::vector<std::uint8_t>(kUnitBytes));
  Rng rng(a.seed);
  for (auto& u : units)
    for (auto& b : u) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> out(kUnitBytes);
  constexpr std::size_t kCalls = 20000;
  m["core.codec.update_ns"] = {
      time_per_call_ns(kCalls, [&](std::size_t i) {
        codec.update(units[kd], 0, static_cast<std::uint32_t>(i % kd),
                     units[i % kd]);
      }),
      "ns"};
  std::vector<std::span<const std::uint8_t>> survivors;
  std::vector<std::uint32_t> survivor_index;
  for (std::uint32_t u = 1; u < width; ++u) {
    survivors.emplace_back(units[u]);
    survivor_index.push_back(u);
  }
  const std::uint32_t erased[] = {0};
  const std::span<std::uint8_t> outs[] = {out};
  m["core.codec.reconstruct_ns"] = {
      time_per_call_ns(kCalls / 4, [&](std::size_t) {
        codec.reconstruct(kd, survivors, survivor_index, erased, outs);
        g_sink = g_sink + out[0];
      }),
      "ns"};
  m["core.crc32c_ns"] = {time_per_call_ns(kCalls, [&](std::size_t i) {
                           g_sink =
                               g_sink + pdl::core::crc32c(units[i % width]);
                         }),
                         "ns"};
}

int run_traced(const WorkloadSpec& spec, const Args& a) {
  const double window = a.seconds / 2;
  Instance inst;
  std::vector<SetupTimes> setups(2);

  // Untraced reference window, on a plain set-up.
  if (!make_instance(spec, a, false, &inst, &setups[0])) return 1;
  warm_up(spec, a, inst);
  PhaseResult plain;
  std::uint64_t failed = measure(spec, a, inst, window, false, &plain);
  failed += check_instance(inst, a, plain);

  // Traced window, on a set-up whose backends are wrapped for timing.
  if (!make_instance(spec, a, true, &inst, &setups[1])) return 1;
  Target& t = *inst.target;
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  warm_up(spec, a, inst);
  const auto hot0 = t.hotness();
  const auto integ0 = t.integrity();
  pdl::fleet::GovernorStats gov0;
  if (t.fleet() != nullptr) gov0 = t.fleet()->governor().stats();
  PhaseResult p;
  failed += measure(spec, a, inst, window, true, &p);
  const auto hot1 = t.hotness();
  const auto integ1 = t.integrity();
  pdl::fleet::GovernorStats gov1;
  if (t.fleet() != nullptr) gov1 = t.fleet()->governor().stats();
  failed += check_instance(inst, a, p);
  print_phase(p);
  const std::uint64_t attempted = plain.ops + p.ops + 2 * t.units();

  const TraceTotals tt = tracer.totals();
  if (!a.trace_out.empty() && !tracer.write_csv(a.trace_out))
    std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());

  // Busy times are reported per second of the traced window (s/s, the
  // mean number of threads inside such calls) and layer self times as
  // shares of the clients' wall time: ratios stay comparable across run
  // lengths and read 0, not a constant time, where a layer is absent.
  Metrics m;
  const auto s = [](std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  };
  const auto per_s = [&](std::uint64_t ns) -> Metric {
    return {ratio(s(ns), p.wall_s), "s/s"};
  };
  const double user_writes_bytes = static_cast<double>(p.writes) * kUnitBytes;
  for (const auto& [use, name] : {std::pair{IoUse::kFgRead, "fg_read"},
                                  std::pair{IoUse::kFgWrite, "fg_write"},
                                  std::pair{IoUse::kRebuild, "rebuild"}}) {
    const auto u = static_cast<std::size_t>(use);
    const std::string prefix = std::string("io.backend.") + name;
    m[prefix + ".ops"] = {double(tt.io_ops[u]), "count"};
    m[prefix + ".busy_s_per_s"] = per_s(tt.io_busy_ns[u]);
  }
  m["io.backend.journal.begins"] = {double(tt.journal_begins), "count"};
  m["io.backend.journal.busy_s_per_s"] = per_s(tt.journal_ns);
  m["io.backend.batch.mean_requests"] = {
      ratio(double(tt.batch_requests), double(tt.batches)), "count"};
  m["io.backend.bytes_written_per_user_byte"] = {
      ratio(double(tt.io_bytes_written + tt.journal_bytes),
            user_writes_bytes), "ratio"};

  m["io.store.read.self_us_p50"] = {us_at(tt.read_self_ns, 0.5), "us"};
  m["io.store.write.self_us_p50"] = {us_at(tt.write_self_ns, 0.5), "us"};
  m["io.store.write.units_read_per_write"] = {
      ratio(double(p.write_units_read), double(p.writes)), "count"};
  m["io.store.write.units_written_per_write"] = {
      ratio(double(p.write_units_written), double(p.writes)), "count"};
  m["io.store.read.degraded_fraction"] = {
      ratio(double(p.degraded_reads), double(p.reads)), "ratio"};
  m["io.store.read.degraded_fanin"] = {
      ratio(double(p.degraded_fanin), double(p.degraded_reads)), "count"};
  m["io.store.rebuild.stripes_per_call"] = {
      ratio(double(p.rebuild_stripes), double(p.rebuild_calls)), "count"};
  std::uint64_t rebuild_ns = 0;
  for (const std::uint64_t ns : tt.rebuild_call_ns) rebuild_ns += ns;
  m["io.store.rebuild.busy_s_per_s"] = per_s(rebuild_ns);
  m["io.store.rebuild.call_p99_ms"] = {us_at(tt.rebuild_call_ns, 0.99) * 1e-3,
                                       "ms"};
  m["io.store.rebuild.mb_s"] = {median(p.call_mb_s), "MB/s"};

  const double hits = double(hot1.hits - hot0.hits);
  const double probes = hits + double(hot1.misses - hot0.misses);
  const double folds = double(hot1.folds - hot0.folds);
  m["io.cache.hit_rate"] = {ratio(hits, probes), "ratio"};
  m["io.cache.absorbed_per_write"] = {
      ratio(double(hot1.absorbed_writes - hot0.absorbed_writes),
            double(p.writes)),
      "ratio"};
  m["io.cache.units_per_fold"] = {
      ratio(double(hot1.folded_units - hot0.folded_units), folds), "count"};
  m["io.cache.evictions"] = {double(hot1.evictions - hot0.evictions), "count"};
  m["io.integrity.verified_per_read"] = {
      ratio(double(integ1.verified - integ0.verified), double(p.reads)),
      "ratio"};
  m["io.integrity.mismatches"] = {double(integ1.mismatches - integ0.mismatches),
                                  "count"};

  m["fleet.governor.grants"] = {double(gov1.grants - gov0.grants), "count"};
  m["fleet.governor.waits"] = {double(gov1.waits - gov0.waits), "count"};

  layer_microbench(t, spec, a, m);

  m["setup.array_create_s"] = {
      median({setups[0].array_create_s, setups[1].array_create_s}), "s"};
  m["setup.store_create_s"] = {
      median({setups[0].store_create_s, setups[1].store_create_s}), "s"};
  m["setup.fill_s"] = {median({setups[0].fill_s, setups[1].fill_s}), "s"};

  // Self times of the layers plus the uncovered remainder add up to the
  // clients' wall time by construction; print the identity.
  const double client_wall = p.client_wall_s;
  double self_sum = 0;
  for (const std::string layer : {"fleet", "io.store", "io.backend"}) {
    const double layer_s = s(tt.layer_self_ns(layer));
    m["trace.self_share." + layer] = {ratio(layer_s, client_wall), "ratio"};
    self_sum += layer_s;
  }
  m["trace.client_wall_s"] = {client_wall, "s"};
  m["trace.uncovered_s"] = {client_wall - s(tt.covered_ns), "s"};
  m["trace.span_coverage"] = {ratio(s(tt.covered_ns), client_wall), "ratio"};
  m["trace.spans"] = {double(tt.spans), "count"};
  const double plain_mb_s = fg_mb_s(plain);
  const double traced_mb_s = fg_mb_s(p);
  m["trace.overhead"] = {1.0 - ratio(traced_mb_s, plain_mb_s), "ratio"};
  std::printf("# layer self times %.4fs + uncovered %.4fs = client wall "
              "%.4fs; fg_mb_s untraced %.2f, traced %.2f\n",
              self_sum, client_wall - s(tt.covered_ns), client_wall, plain_mb_s,
              traced_mb_s);
  std::printf("%s\n", result_json(failed == 0, attempted, failed, m).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--trace-out FILE]\n"
                 "       perfbench --self-test [--data-dir DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(a.workload);
  if (!a.self_test && spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  const int rc = a.self_test     ? run_self_test(a.data_dir)
                 : a.trace == 1 ? run_traced(*spec, a)
                                : run_untraced(*spec, a);
  std::error_code ec;
  std::filesystem::remove_all(a.data_dir, ec);
  return rc;
}
