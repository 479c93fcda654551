"""Seeded inputs, round order, stopping rule and output checks of the workloads.

Stdlib only, and independent of the charprime package: the parent process
builds argv lists from here without importing the program, and the checks
use stored goldens, stored reference digits and plain float arithmetic.

A workload is one *block*: a list of CLI argv lists drawn from the seed.
A run repeats its block and times every request at the median of its
repeats, so a block is built so that its cost hardly depends on the seed (the seed picks
near-equal-cost variants, and the order each round runs the block in).
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Reference digits from the log-L-value route (Moebius inversion of the
# Euler product, mpmath at 60 digits), stable under a change of the
# direct-sum cut-off M = 97 vs 200.  W(1) agrees with the repo's own
# assembly, 0.33498132529999324 +- 8e-17.
REFERENCE = {
    1: "0.3349813252999931810633171214875435737800",
    3: "0.0322524738335025274346597830382133508732",
    5: "0.0038580694154806620957944261667735431768",
}

Block = list[list[str]]

MIN_ROUNDS = 5            # a median of five rounds at least, for every request of a block,
MAX_BUDGET_FACTOR = 1.5   # unless that takes more than 1.5 times the budget


def round_order(seed: int, round_no: int, size: int) -> list[int]:
    """The order in which round ``round_no`` runs a block of ``size``
    requests.  It is drawn afresh for every round: the first op in a fresh
    process runs cold, and a request that came first in every round would
    be timed cold in every round."""
    order = list(range(size))
    random.Random(f"order:{seed}:{round_no}").shuffle(order)
    return order


def should_stop(spent: float, rounds: int, min_rounds: int, budget: float) -> bool:
    """The rule that ends a run's rounds: after ``rounds`` rounds and
    ``spent`` seconds of op time, stop when the next round (at the mean
    round time so far) would pass MAX_BUDGET_FACTOR times ``budget``, or
    when ``min_rounds`` are done and it would pass ``budget``."""
    after_next = spent + spent / rounds
    return after_next > MAX_BUDGET_FACTOR * budget or (
        rounds >= min_rounds and after_next > budget)


# ---------------------------------------------------------------------------
# tables: the paper's deliverable, one identical request per op
# ---------------------------------------------------------------------------

TABLES_ARGV = ["reproduce", "--table", "all", "--format", "json"]


def tables_block(seed: int, smoke: bool) -> Block:
    # The input is fixed; the seed has nothing to vary.
    return [list(TABLES_ARGV)]


def check_tables(argv: list[str], rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    if out != _golden("tables.json"):
        return "stdout differs from golden/tables.json"
    return None


# ---------------------------------------------------------------------------
# deep: distinct certified-digit requests, none repeated in a process
# ---------------------------------------------------------------------------

# W(1) at 11-13 and W(3) at 15-16 digits take 0.5-6 s each today; a round
# with them runs 12-18 s, too few rounds per run for a steady median.  NOTES.md keeps them on the list to add once they are cheap.
DEEP_GRID = ([(1, d) for d in range(8, 11)]
             + [(3, d) for d in range(11, 15)]
             + [(5, d) for d in range(20, 29)])
DEEP_SMOKE = [(1, 8), (3, 11), (5, 20)]


def min_max_k(digits: int) -> int:
    """Smallest --max-k whose analytic tail 1.125 * 4/(3 n 3^n), n = 2k+3,
    certifies ``digits`` places, with a 20% margin for the CLI's outward
    rounding of the same bound."""
    k = 1
    while Fraction(9, 2) / (3 * (2 * k + 3) * 3 ** (2 * k + 3)) >= Fraction(2, 5) / 10 ** digits:
        k += 1
    return k


def deep_block(seed: int, smoke: bool) -> Block:
    # The whole grid, each W(1) with a seeded --max-k.
    rng = random.Random(f"deep:{seed}")
    block = []
    for n, d in DEEP_SMOKE if smoke else DEEP_GRID:
        argv = ["compute", "W", str(n), "--digits", str(d)]
        if n == 1:
            argv += ["--max-k", str(min_max_k(d) + rng.randint(0, 2))]
        block.append(argv)
    return block


_SERIES_LINE = re.compile(r"^W\((\d+)\) = (-?\d+\.\d+)$")


def check_deep(argv: list[str], rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    n, digits = int(argv[2]), int(argv[4])
    lines = out.splitlines()
    m = _SERIES_LINE.match(lines[0]) if lines else None
    if not m or int(m.group(1)) != n:
        return f"unexpected first line {lines[:1]}"
    shown = m.group(2)
    if len(shown.partition(".")[2]) != digits:
        return f"{shown} does not have {digits} places"
    # A certified value rounded to d places is within 1e-d of the truth.
    if abs(Fraction(shown) - Fraction(REFERENCE[n])) >= Fraction(1, 10 ** digits):
        return f"W({n}) = {shown} is off the reference {REFERENCE[n][:digits + 4]}"
    fields = dict(line.split(": ", 1) for line in lines[1:] if ": " in line)
    if fields.get("rigorous") != "yes":
        return "not flagged rigorous"
    if int(fields.get("certified_digits", "0")) < digits:
        return f"certified_digits {fields.get('certified_digits')} < {digits}"
    return None


# ---------------------------------------------------------------------------
# verify: the self-check suites, one identical request per op
# ---------------------------------------------------------------------------

VERIFY_GROUPS = ("error-bound-soundness", "character-multiplicativity",
                 "step-equivalence", "sieved-tail-oracle", "beta-direct-bound",
                 "master-identity", "product-rationals", "format-roundtrip")


def verify_block(seed: int, smoke: bool) -> Block:
    return [["verify"]]


_GROUP_LINE = re.compile(r"^([\w-]+): (PASS|FAIL) \(")


def check_verify(argv: list[str], rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    lines = out.splitlines()
    verdicts = dict(m.groups() for m in map(_GROUP_LINE.match, lines) if m)
    failed = [g for g, v in verdicts.items() if v != "PASS"]
    missing = [g for g in VERIFY_GROUPS if g not in verdicts]
    if failed or missing:
        return f"failed groups {failed}, missing groups {missing}"
    if not lines or lines[-1] != "verify: all groups pass":
        return "no 'all groups pass' summary line"
    return None


# ---------------------------------------------------------------------------
# scan: rational search; arith logs only, no prime lookups
# ---------------------------------------------------------------------------

SCAN_VALUE = "0.33498132529999324"

# The block holds SCAN_PER_SLOT requests per slot.  A slot fixes a band of
# denominators and K; the tolerance is K / D^2, so each request tests about
# 2.7 K fractions whatever D the seed picks (the window around the centre
# holds ~4.5 tol D^2 numerators, ~61% of them coprime).
SCAN_SLOTS = ((100, 6), (200, 8), (300, 10), (500, 12),
              (800, 14), (1200, 16), (2000, 18), (3000, 20))
SCAN_SLOT_WIDTH = 10
SCAN_PER_SLOT = 3


def scan_tol(k: int, den: int) -> str:
    return f"{k / den ** 2:.3g}"


def scan_pairs() -> list[tuple[int, str]]:
    """Every (max_den, tol) a seed can draw; golden/scan_counts.json covers all."""
    return [(d, scan_tol(k, d)) for d_base, k in SCAN_SLOTS
            for d in _slot_dens(d_base)]


def _slot_dens(d_base: int) -> range:
    step = max(1, d_base // 100)
    return range(d_base, d_base + step * SCAN_SLOT_WIDTH, step)


def scan_argv(den: int, tol: str) -> list[str]:
    return ["scan", "--value", SCAN_VALUE, "--max-den", str(den), "--tol", tol]


def scan_block(seed: int, smoke: bool) -> Block:
    # Several draws per slot, so the block's cost hardly depends on the seed.
    rng = random.Random(f"scan:{seed}")
    block = []
    for d_base, k in SCAN_SLOTS[:2] if smoke else SCAN_SLOTS:
        for d in sorted(rng.sample(_slot_dens(d_base), 1 if smoke else SCAN_PER_SLOT)):
            block.append(scan_argv(d, scan_tol(k, d)))
    return block


def scan_oracle(value: float, max_den: int, tol: float) -> tuple[dict, set]:
    """Reduced a/b, b <= max_den, with |value - (ln pi - ln(a/b))| < tol.

    Plain float logs: returns {(a, b): residual} for the clear cases and the
    set of fractions within 1e-12 of the tolerance edge, where float error
    could flip the verdict.
    """
    centre = math.log(math.pi) - value
    lo_f, hi_f = math.exp(centre - tol), math.exp(centre + tol)
    found, edge = {}, set()
    for b in range(1, max_den + 1):
        for a in range(max(1, math.floor(b * lo_f) - 1), math.ceil(b * hi_f) + 2):
            if math.gcd(a, b) != 1:
                continue
            r = value - (math.log(math.pi) - (math.log(a) - math.log(b)))
            if abs(abs(r) - tol) < 1e-12:
                edge.add((a, b))
            elif abs(r) < tol:
                found[(a, b)] = r
    return found, edge


_CANDIDATE_LINE = re.compile(r"^N = (\d+)/(\d+)   residual = (-?\d\.\d+E[+-]\d+)$")


@functools.cache
def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def check_scan(argv: list[str], rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    den, tol = int(argv[4]), argv[6]
    lines = out.splitlines()
    printed = {}
    if lines != ["no candidate found"]:
        for line in lines:
            m = _CANDIDATE_LINE.match(line)
            if not m:
                return f"unexpected line {line!r}"
            printed[(int(m.group(1)), int(m.group(2)))] = float(m.group(3))
    golden = json.loads(_golden("scan_counts.json")).get(f"{den}:{tol}")
    if golden is None:
        return f"no golden count for max_den {den}, tol {tol}"
    if len(printed) != golden:
        return f"{len(printed)} candidates, golden has {golden}"
    found, edge = scan_oracle(float(SCAN_VALUE), den, float(tol))
    if set(found) - set(printed) or set(printed) - set(found) - edge:
        return "candidate set differs from the float oracle"
    for frac, r in printed.items():
        if frac in found and abs(r - found[frac]) > 6e-4 * abs(found[frac]) + 1e-13:
            return f"residual of {frac[0]}/{frac[1]} printed {r}, oracle {found[frac]}"
    return None


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    block: Callable[[int, bool], Block]
    check: Callable[[list[str], int, str], str | None]
    # True: each repeat of the block runs in a fresh process, so no request
    # repeats inside one and memoisation cannot help.  False: the block
    # repeats inside one process, as a long-lived caller would.
    fresh_process: bool


WORKLOADS = {w.name: w for w in (
    Workload("tables", "the paper's deliverable repeated in one process; "
             "arith constants, beta and report", tables_block, check_tables, False),
    Workload("deep", "distinct certified W(1), W(3), W(5) requests, none "
             "repeated in a process; prime lookup and exclusion", deep_block, check_deep, True),
    Workload("verify", "the self-check suites repeated in one process; the only "
             "path into checks, repeated w_value arguments", verify_block, check_verify, False),
    Workload("scan", "rational searches, none repeated in a process; arith logs "
             "only, bypasses the prime lookup", scan_block, check_scan, True),
)}
