#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark binary is built from source
(perfbench/CMakeLists.txt compiles ../src with it) into .bench_build/, then
run; its comment lines are passed through and its result object is
checked and printed as the last line of standard output.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step {cmd[:2]} failed: {exc}")
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build step {cmd[:2]} exited {proc.returncode}")
            return False
    return True


def parse_result(stdout):
    """The result object on the last non-empty line of `stdout`.

    Raises ValueError unless it has exactly the keys correct, attempted,
    failed and metrics, with whole-number counts (attempted >= 1) and
    every metric a {"value": number, "unit": str} pair.
    """
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise ValueError(
            "result keys are not correct/attempted/failed/metrics")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) \
                or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted is below 1")
    if not isinstance(result["metrics"], dict) or not result["metrics"]:
        raise ValueError("metrics is empty")
    for name, metric in result["metrics"].items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"} \
                or not isinstance(metric["value"], (int, float)) \
                or isinstance(metric["value"], bool) \
                or not isinstance(metric["unit"], str):
            raise ValueError(f"metric {name} is not a value/unit pair")
    return result


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    if not build():
        return 1
    data_dir = os.path.join(ROOT, ".bench_build", "perfbench-data",
                            args.workload)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", f"perfbench-trace-{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line)
    try:
        result = parse_result(proc.stdout)
    except ValueError as exc:
        log(f"bad result ({exc}); binary exited {proc.returncode}")
        return 1
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ declared)}")
        return 1
    print(json.dumps(result), flush=True)
    return proc.returncode


class ParseResultTest(unittest.TestCase):
    GOOD = ('{"correct": true, "attempted": 3, "failed": 0, "metrics": '
            '{"x_s": {"value": 0.5, "unit": "s"}}}')

    def test_last_line_wins(self):
        r = parse_result("# comment\n" + self.GOOD + "\n\n")
        self.assertEqual(r["metrics"]["x_s"]["value"], 0.5)

    def test_rejects_extra_key(self):
        with self.assertRaises(ValueError):
            parse_result(self.GOOD[:-1] + ', "extra": 1}')

    def test_rejects_fractional_count(self):
        with self.assertRaises(ValueError):
            parse_result(
                self.GOOD.replace('"attempted": 3', '"attempted": 2.5'))

    def test_rejects_zero_attempted(self):
        with self.assertRaises(ValueError):
            parse_result(self.GOOD.replace('"attempted": 3', '"attempted": 0'))

    def test_rejects_bad_metric(self):
        with self.assertRaises(ValueError):
            parse_result(self.GOOD.replace('"unit": "s"', '"units": "s"'))

    def test_rejects_non_json_tail(self):
        with self.assertRaises(ValueError):
            parse_result(self.GOOD + "\ntrailing text")


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(ParseResultTest)
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        return 1
    if not build():
        return 1
    data_dir = os.path.join(ROOT, ".bench_build", "perfbench-data",
                            "self-test")
    return subprocess.run([BINARY, "--self-test", "--data-dir", data_dir],
                          timeout=RUN_TIMEOUT_S).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
