"""Tests of the benchmark itself; stdlib unittest, about half a minute.

    python3 -m unittest discover -s bench -p 'test_*.py'

Runs a tiny (--smoke) version of every workload, timed and traced, and
checks that the metric names and units it emits are the ones
BENCHMARK.json declares.  Also checks that the output checks reject wrong
answers, that tracing restores the program and reports a missing function
as an absent metric, and that the benchmark refuses to run without the
program.
"""

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class SmokeRuns(unittest.TestCase):
    def test_every_workload_emits_the_declared_metrics(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = _run_bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                                      "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     {m["name"]: m["unit"] for m in SPEC[kind]})
                    meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
                    if not trace:
                        self.assertTrue(all(t > 0 for t in meta["request_norm_s"]))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run_bench("--workload", "tables", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Declarations(unittest.TestCase):
    def test_spec_matches_the_code(self):
        self.assertEqual([(w["name"], w["why"]) for w in SPEC["workloads"]],
                         [(w.name, w.why) for w in workloads.WORKLOADS.values()])
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
        coded = {name: (unit, better) for name, (unit, better, _) in tracer.PER_LAYER.items()}
        name, unit, better = tracer.OVERHEAD
        coded[name] = (unit, better)
        self.assertEqual(declared, coded)

    def test_inputs_follow_the_seed(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(wl.block(5, False), wl.block(5, False))
        for block in (workloads.deep_block, workloads.scan_block):
            self.assertNotEqual(block(5, False), block(6, False))
        self.assertEqual(workloads.round_order(5, 3, 16), workloads.round_order(5, 3, 16))
        self.assertEqual(sorted(workloads.round_order(5, 3, 16)), list(range(16)))

    def test_every_scan_request_has_a_golden_count(self):
        counts = json.loads((workloads.GOLDEN_DIR / "scan_counts.json").read_text())
        self.assertEqual(set(counts), {f"{d}:{t}" for d, t in workloads.scan_pairs()})


class OutputChecks(unittest.TestCase):
    """A fast wrong answer must count as a failure."""

    def test_deep_rejects_a_wrong_digit(self):
        argv = ["compute", "W", "3", "--digits", "11"]
        good = ("W(3) = 0.03225247383\nmethod: exclusion\nrigorous: yes\n"
                "certified_digits: 12\nerror_bound: 1.0E-13\n")
        self.assertIsNone(workloads.check_deep(argv, 0, good))
        self.assertIsNotNone(workloads.check_deep(argv, 0, good.replace("383", "385")))
        self.assertIsNotNone(workloads.check_deep(argv, 0, good.replace("yes", "no")))
        self.assertIsNotNone(workloads.check_deep(argv, 2, good))

    def test_tables_needs_identical_bytes(self):
        golden = (workloads.GOLDEN_DIR / "tables.json").read_text()
        self.assertIsNone(workloads.check_tables(workloads.TABLES_ARGV, 0, golden))
        self.assertIsNotNone(workloads.check_tables(workloads.TABLES_ARGV, 0, golden + " "))

    def test_scan_rechecks_candidates(self):
        den, tol = workloads.scan_pairs()[0]
        argv = workloads.scan_argv(den, tol)
        found, _ = workloads.scan_oracle(float(workloads.SCAN_VALUE), den, float(tol))
        ordered = sorted(found.items(), key=lambda kv: abs(kv[1]))
        lines = [f"N = {a}/{b}   residual = {r:.3E}" for (a, b), r in ordered]
        self.assertIsNone(workloads.check_scan(argv, 0, "\n".join(lines) + "\n"))
        self.assertIsNotNone(workloads.check_scan(argv, 0, "\n".join(lines[1:]) + "\n"))
        (a, b), r = ordered[0]
        wrong = f"N = {a}/{b}   residual = {2 * r:.3E}"
        self.assertIsNotNone(workloads.check_scan(argv, 0, "\n".join([wrong] + lines[1:]) + "\n"))

    def test_verify_needs_every_group_to_pass(self):
        lines = [f"{g}: PASS (ok)" for g in workloads.VERIFY_GROUPS]
        good = "\n".join(lines + ["verify: all groups pass"]) + "\n"
        self.assertIsNone(workloads.check_verify(["verify"], 0, good))
        self.assertIsNotNone(workloads.check_verify(["verify"], 0, good.replace("PASS", "FAIL", 1)))


class HostSpeed(unittest.TestCase):
    def test_an_op_takes_the_harmonic_mean_of_the_samples_around_it(self):
        s = hostspeed.Sampler()
        s.samples = [(0.0, 1.0), (0.1, 2.0), (0.2, 4.0), (5.0, 8.0)]
        self.assertAlmostEqual(s.speed_around(0.05, 0.15), 3 / (1 + 1 / 2 + 1 / 4))
        # One sample in the window: the three nearest the op instead.
        self.assertAlmostEqual(s.speed_around(4.99, 5.0), 3 / (1 / 2 + 1 / 4 + 1 / 8))
        self.assertEqual(hostspeed.corrected(1.0, 2 * hostspeed.REF_S), 0.5)

    def test_sampler_samples_inside_a_long_call_and_stops(self):
        s = hostspeed.Sampler()
        s.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * hostspeed.PERIOD_S:
            pass
        inside = len(s.samples) - hostspeed.MIN_SAMPLES
        s.stop()
        self.assertGreaterEqual(inside, 3)
        self.assertGreater(s.excluded, 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class Tracing(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, str(ROOT / "src"))
        import charprime.primes
        self.primes = charprime.primes

    def tearDown(self):
        sys.path.remove(str(ROOT / "src"))

    def _bindings(self):
        return {(name, ref): obj for name, mod in sys.modules.items()
                if name.startswith("charprime") for ref, obj in vars(mod).items()}

    def test_restore_puts_every_original_back(self):
        from charprime.cli import main
        before = self._bindings()
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(self.primes.odd_primes, before[("charprime.primes", "odd_primes")])
        self.assertTrue(t.restore())
        self.assertEqual(self._bindings(), before)
        self.assertIs(sys.modules["charprime.cli"].main, main)

    def test_restore_reports_a_wrapper_left_behind(self):
        t = tracer.Tracer()
        t.install()
        stray = self.primes.odd_primes           # a wrapper, bound under a second name
        self.primes.stray_binding = stray
        try:
            self.assertFalse(t.restore())
            self.assertEqual(t.leftovers(), ["charprime.primes.stray_binding"])
        finally:
            del self.primes.stray_binding
        self.assertEqual(t.leftovers(), [])

    def test_distinct_ratio_counts_within_each_op(self):
        t = tracer.Tracer()
        t.install()
        try:
            import charprime.arith
            for op in range(3):                  # the same two calls in every op
                t.start_op(op)
                charprime.arith.constant("pi", 20)
                charprime.arith.constant("pi", 20)
        finally:
            self.assertTrue(t.restore())
        metrics, _ = tracer.layer_metrics(t.raw(), 3, 1.0)
        self.assertEqual(metrics["arith.constant.calls"]["value"], 2)
        self.assertEqual(metrics["arith.constant.distinct_ratio"]["value"], 0.5)

    def test_a_memoised_function_is_still_traced(self):
        import functools
        import charprime.arith
        original = charprime.arith.constant
        charprime.arith.constant = functools.cache(original)
        try:
            t = tracer.Tracer()
            t.install()
            try:
                charprime.arith.constant("pi", 20)
                charprime.arith.constant("pi", 20)
            finally:
                self.assertTrue(t.restore())
        finally:
            charprime.arith.constant = original
        metrics, absent = tracer.layer_metrics(t.raw(), 1, 1.0)
        self.assertNotIn("arith.constant.calls", absent)
        self.assertEqual(metrics["arith.constant.calls"]["value"], 2)

    def test_missing_function_is_an_absent_metric(self):
        original = self.primes.nth_odd_prime
        del self.primes.nth_odd_prime
        try:
            t = tracer.Tracer()
            t.install()
            self.assertTrue(t.restore())
        finally:
            self.primes.nth_odd_prime = original
        metrics, absent = tracer.layer_metrics(t.raw(), 1, 1.0)
        self.assertEqual(absent, ["primes.nth_odd_prime.calls"])
        self.assertIn("primes.odd_primes.items", metrics)


if __name__ == "__main__":
    unittest.main()
