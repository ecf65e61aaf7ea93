// Self-tests of the benchmark's own helpers, and the determinism check:
// two single-client oltp-file runs with one seed must agree exactly on
// every receipt-derived count and every backend op count.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void test_quantiles() {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= 100; ++i) v.push_back(i);
  expect(nearest_rank(v, 0.5) == 50, "p50 of 1..100 is 50");
  expect(nearest_rank(v, 0.99) == 99, "p99 of 1..100 is 99");
  expect(nearest_rank(v, 1.0) == 100, "p100 of 1..100 is 100");
  expect(nearest_rank(v, 0.0) == 1, "p0 of 1..100 is 1");
  const std::vector<std::uint64_t> four = {10, 20, 30, 40};
  expect(nearest_rank(four, 0.5) == 20, "p50 of 4 values is the 2nd");
  expect(nearest_rank(four, 0.51) == 30, "p51 of 4 values is the 3rd");
  expect(nearest_rank(std::vector<std::uint64_t>{7}, 0.99) == 7,
         "any quantile of one value is that value");
  expect(nearest_rank({}, 0.5) == 0, "empty sample gives 0");

  expect(std::string(highest_supported_percentile(1000)) == "p99",
         "n=1000 supports p99 (10 beyond)");
  expect(std::string(highest_supported_percentile(999)) == "p90",
         "n=999 does not support p99");
  expect(std::string(highest_supported_percentile(10000)) == "p99.9",
         "n=10000 supports p99.9");
  expect(std::string(highest_supported_percentile(20)) == "p50",
         "n=20 supports p50");
  expect(std::string(highest_supported_percentile(19)).empty(),
         "n=19 supports nothing");
}

void test_result_json() {
  Metrics m;
  m["b_s"] = {0.5, "s"};
  m["a_count"] = {3, "count"};
  expect(result_json(true, 10, 0, m) ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
             "\"metrics\": {\"a_count\": {\"value\": 3, \"unit\": \"count\"}, "
             "\"b_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "result object layout");
}

void test_content() {
  const Content c(42, kUnitBytes);
  std::vector<std::uint8_t> a(kUnitBytes), b(kUnitBytes);
  c.fill(5, 1, a);
  c.fill(5, 2, b);
  expect(c.matches(5, 1, a), "content matches its own (unit, version)");
  expect(!c.matches(5, 2, a), "content differs across versions");
  expect(!c.matches(6, 1, a), "content differs across units");
  expect(a != b, "versions give different bytes");
}

struct Counts {
  std::uint64_t reads = 0, writes = 0, degraded = 0, fanin = 0;
  std::uint64_t units_read = 0, units_written = 0;
  std::uint64_t io_ops[kNumUses] = {};
  std::uint64_t bytes_written = 0, journal_begins = 0, batches = 0,
                batch_requests = 0;
  bool operator==(const Counts&) const = default;
};

bool deterministic_run(const std::string& data_dir, std::uint64_t seed,
                       Counts* out) {
  const WorkloadSpec& spec = *find_workload("oltp-file");
  SetupTimes times;
  auto target = set_up(spec, seed, data_dir, true, 1, &times);
  if (!target.ok()) {
    std::printf("FAIL set-up: %s\n", target.status().to_string().c_str());
    return false;
  }
  Versions versions((*target)->units(), 0);
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  tracer.attach(false);
  tracer.enable();
  const PhaseResult p =
      run_phase(**target, spec, seed, 0, 1, versions, 0, 4000);
  tracer.disable();
  Tracer::detach();
  out->reads = p.reads;
  out->writes = p.writes;
  out->degraded = p.degraded_reads;
  out->fanin = p.degraded_fanin;
  out->units_read = p.write_units_read;
  out->units_written = p.write_units_written;
  const TraceTotals tt = tracer.totals();
  std::copy(std::begin(tt.io_ops), std::end(tt.io_ops), out->io_ops);
  out->bytes_written = tt.io_bytes_written;
  out->journal_begins = tt.journal_begins;
  out->batches = tt.batches;
  out->batch_requests = tt.batch_requests;
  return p.failed == 0;
}

void test_determinism(const std::string& data_dir) {
  Counts first, second;
  expect(deterministic_run(data_dir, 7, &first), "first run clean");
  expect(deterministic_run(data_dir, 7, &second), "second run clean");
  expect(first == second, "same seed gives identical counts");
  expect(first.io_ops[static_cast<int>(IoUse::kFgWrite)] > 0 &&
             first.journal_begins > 0,
         "the timing backend saw the journaled writes");
  std::printf("determinism: %llu reads, %llu writes, %llu fg-read ops, "
              "%llu fg-write ops, %llu journal records (both runs)\n",
              static_cast<unsigned long long>(first.reads),
              static_cast<unsigned long long>(first.writes),
              static_cast<unsigned long long>(
                  first.io_ops[static_cast<int>(IoUse::kFgRead)]),
              static_cast<unsigned long long>(
                  first.io_ops[static_cast<int>(IoUse::kFgWrite)]),
              static_cast<unsigned long long>(first.journal_begins));
}

}  // namespace

int run_self_test(const std::string& data_dir) {
  test_quantiles();
  test_result_json();
  test_content();
  test_determinism(data_dir);
  std::printf("self-test: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
