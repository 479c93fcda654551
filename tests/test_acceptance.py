"""Acceptance gate: one test per criterion, one printed line per criterion.

Golden comparisons follow the units-in-the-last-printed-place convention:
the recomputed value is rounded (halves away from zero) to the printed
number of decimals and must sit within the stated number of final-place
units, inclusively.

Four criteria pin recomputations to printed values that the certified
recomputation shows to be themselves off by 2-3 final-place units (the
printed table chained a slipped difference through every later row, and
the final assembled value inherits it).  Those subchecks fail here by
design rather than being weakened; the README's reproduction-findings
section carries the full analysis, and the reproduction command reports
the same rows as errata.
"""

import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal

from charprime.beta import beta_closed, euler_numbers
from charprime.checks import (_beta_direct_bound, _master_identity,
                              _multiplicativity, _oracle_equivalence,
                              _product_rationals, _step_equivalence)
from charprime.cli import RunConfig
from charprime.exclusion import init_state, run, step
from charprime.logmethod import assemble_O
from charprime.report import build_s13, build_s28

from goldens import (EULER_NUMBERS_9, PRINTED_S13, PRINTED_S21,
                     PRINTED_S21_DIFFS, PRINTED_S28)


class Criterion:
    def __init__(self, cid, title):
        self.cid = cid
        self.title = title
        self.passed = []
        self.failed = []

    def check(self, description, ok):
        (self.passed if ok else self.failed).append(description)

    def conclude(self):
        total = len(self.passed) + len(self.failed)
        status = "PASS" if not self.failed else "FAIL"
        print(f"ACCEPTANCE {self.cid} ({self.title}): {status} "
              f"[{len(self.passed)}/{total} subchecks]")
        assert not self.failed, (
            f"criterion {self.cid} failed subchecks:\n  " + "\n  ".join(self.failed))


def units(value, printed: str) -> int:
    """Signed final-place units between a rounded recomputation and a print."""
    places = len(printed.partition(".")[2])
    rounded = value.round_decimal(places)
    return int(((rounded - Decimal(printed)) * Decimal(10) ** places).to_integral_value())


def test_criterion_1_beta_table():
    c = Criterion(1, "seven-place beta table")
    start = time.perf_counter()
    betas = {n: beta_closed(n, 15).value for n in range(3, 17, 2)}
    for n, printed in PRINTED_S21.items():
        d = units(betas[n], printed)
        c.check(f"beta({n}): printed {printed}, recomputed rounds to "
                f"{betas[n].round_decimal(7)} (delta {d:+d} units)", abs(d) <= 1)
    ns = list(range(3, 17, 2))
    for printed, lo, hi in zip(PRINTED_S21_DIFFS, ns, ns[1:]):
        diff = betas[hi] - betas[lo]
        d = units(diff, printed)
        c.check(f"difference beta({hi})-beta({lo}): printed {printed}, "
                f"recomputed rounds to {diff.round_decimal(7)} (delta {d:+d})",
                abs(d) <= 1)
    elapsed = time.perf_counter() - start
    c.check(f"runtime {elapsed:.3f}s < 1s", elapsed < 1.0)
    c.conclude()


def test_criterion_2_euler_numbers():
    c = Criterion(2, "exact secant numbers")
    c.check("euler_numbers(9) equals the nine printed numerators exactly",
            euler_numbers(9) == EULER_NUMBERS_9)
    c.conclude()


def test_criterion_3_first_power_trace():
    c = Criterion(3, "six-place exclusion trace")
    start = time.perf_counter()
    state = init_state(1)
    values = {}
    for letter in "BCDEFGHIK":
        state = step(state)
        values[letter] = state.V
    for letter in "BCDEFGH":
        d = units(values[letter], PRINTED_S13[letter])
        c.check(f"{letter}: printed {PRINTED_S13[letter]}, delta {d:+d} units",
                abs(d) <= 2)
    table = build_s13(RunConfig())
    i_row = {r.label: r for r in table.rows}["I"]
    c.check("I row is flagged as an erratum", i_row.verdict == "erratum")
    d_i = units(values["I"], "0.669244")
    c.check(f"recomputed I rounds to {values['I'].round_decimal(6)}, "
            f"within one final unit of 0.669244", abs(d_i) <= 1)
    d_k = units(values["K"], PRINTED_S13["K"])
    c.check(f"K from the corrected I: printed {PRINTED_S13['K']}, delta {d_k:+d}",
            abs(d_k) <= 2)
    elapsed = time.perf_counter() - start
    c.check(f"runtime {elapsed:.3f}s < 1s", elapsed < 1.0)
    c.conclude()


def test_criterion_4_intermediate_assemblies():
    c = Criterion(4, "worked assemblies")
    from charprime.arith import constant
    p_run = run(3, 4).value
    q_run = run(5, 2).value
    r_run = run(7, 1).value
    for name, value, printed in (("P", p_run, "0.0322521"),
                                 ("Q", q_run, "0.0038581"),
                                 ("R", r_run, "0.0004455")):
        d = units(value, printed)
        c.check(f"{name}: printed {printed}, recomputed rounds to "
                f"{value.round_decimal(7)} (delta {d:+d} units)", abs(d) <= 1)
    running = constant("ln2", 30) / 2 - p_run / 3
    for name, printed in (("after P", "0.3358229"), ("after Q", "0.3350513"),
                          ("after R", "0.3349877")):
        gap = (running.value - Decimal(printed)).copy_abs()
        c.check(f"running value {name}: printed {printed}, recomputed "
                f"{running.round_decimal(8)} (|gap| = {gap:.2E})",
                gap <= Decimal("2e-7"))
        if name == "after P":
            running = running - q_run / 5
        elif name == "after Q":
            running = running - r_run / 7
    c.conclude()


def test_criterion_5_final_value():
    c = Criterion(5, "assembled first-power sum")
    o_default = assemble_O(10, 7).series.value
    gap = (o_default.value - Decimal("0.3349816")).copy_abs()
    c.check(f"assembled value {o_default.round_decimal(9)} within 2e-7 of the "
            f"printed 0.3349816 (|gap| = {gap:.2E})", gap <= Decimal("2e-7"))
    o_deep = assemble_O(20, 9).series.value
    stability = (o_default.value - o_deep.value).copy_abs()
    c.check(f"stable to 1e-9 under doubled depths (|gap| = {stability:.2E})",
            stability <= Decimal("1e-9"))
    c.check("exceeds one third by more than 0.0016",
            o_default.value - Decimal(1) / 3 > Decimal("0.0016"))
    c.check("complement 1 - O is below 0.669",
            1 - o_default.value < Decimal("0.669"))
    c.conclude()


def test_criterion_6_final_table():
    c = Criterion(6, "converged table of W(n)")
    table = build_s28(RunConfig())
    rows = {r.label: r for r in table.rows}
    for n, printed in PRINTED_S28.items():
        row = rows[f"n={n}"]
        if n == 5:
            c.check("n=5 is flagged (printed 0.0038602, recomputed "
                    f"{row.recomputed})", row.verdict == "erratum"
                    and row.recomputed == "0.0038581")
        else:
            c.check(f"n={n}: printed {printed}, recomputed {row.recomputed} "
                    f"(delta {row.delta:+d} units)", abs(row.delta) <= 1)
    c.conclude()


def test_criterion_7_property_suites():
    c = Criterion(7, "property suites")
    cfg = RunConfig()
    for fn in (_multiplicativity, _step_equivalence, _oracle_equivalence,
               _beta_direct_bound, _master_identity, _product_rationals):
        result = fn(cfg)
        c.check(f"{result.group}: {result.detail}", result.passed)
    c.conclude()


def test_criterion_8_determinism():
    c = Criterion(8, "byte-identical reproduction")
    start = time.perf_counter()
    env = dict(os.environ)
    env.pop("CHARPRIME_WORKING_DIGITS", None)
    cmd = [sys.executable, "-m", "charprime.cli", "reproduce", "--table", "all",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    elapsed = time.perf_counter() - start
    c.check("both invocations exit 0",
            first.returncode == 0 and second.returncode == 0)
    c.check("stdout bytes identical across runs", first.stdout == second.stdout)
    c.check("output parses as the five tables",
            [t["table_id"] for t in json.loads(first.stdout)]
            == ["s12", "s13", "s21", "s23_26", "s28"])
    c.check(f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0)
    c.conclude()
