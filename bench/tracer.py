"""Per-layer tracing of charprime, installed from outside the package.

The traced run wraps the public functions of each package module at every
name their callers import (each ``charprime.*`` namespace that holds the
function), plus the HighPrecReal operators, and restores the originals
afterwards.  Nothing under ``src/`` changes.  Functions are found by name
at start-up; a metric whose function a later change renamed or deleted is
reported as absent instead of failing the run.

Every wrapped call measures its duration and tells its caller, so a
function's self time is its duration minus that of the wrapped calls made
inside it, and a layer's self time is the sum over its functions.  Calls
at the coarse public boundaries are also kept as spans (op id, span id,
parent span id, name, start, end) in memory and handed to the parent,
which writes them out when the run ends;
the hot leaves in ``HOT`` keep only counts and summed times.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "report", "checks", "logmethod", "exclusion", "beta", "primes", "arith")

HPR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "pow_int")
HPR_LEAVES = ("exact", "from_fraction")

# chi4 runs once per PrimeChar the prime lookup builds (millions per deep
# pass) and is only a parity test; wrapping it would double the traced
# time of deep.  Its time stays with its caller.
SKIP = {"primes.chi4"}

HOT = {"arith.hpr_ops", "arith.HighPrecReal.exact", "arith.HighPrecReal.from_fraction",
       "arith.precision", "arith.working_digits", "primes.odd_primes",
       "primes.nth_odd_prime", "primes.sieve_odd_primes", "primes.smallest_prime_factor",
       "exclusion.step", "exclusion.step_closed_form", "exclusion.composite_tail_bound"}

# Functions whose argument sets are recorded, for the distinct_ratio metrics.
KEYED = {"logmethod.w_value", "beta.beta_closed", "arith.constant"}


class _Stat:
    __slots__ = ("layer", "calls", "incl", "self", "active", "keys", "distinct", "items",
                 "probes")

    def __init__(self, layer: str, keyed: bool):
        self.layer = layer
        self.calls = 0
        self.incl = 0.0       # outermost calls only, so recursion is not counted twice
        self.self = 0.0
        self.active = 0
        self.keys = set() if keyed else None     # argument sets seen in the current op
        self.distinct = 0     # distinct argument sets, summed over finished ops
        self.items = 0        # summed len() of results (odd_primes)
        self.probes = 0       # calls made directly from logmethod.w_value


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self.op = 0
        self._wrappers: dict[int, object] = {}     # id -> every wrapper made (kept alive)
        self._t0 = perf_counter()
        self._stack = [[0.0, 0, None]]       # frames: [child time, span id, stat]
        self._next_id = 1
        self._patched: list[tuple] = []      # (owner, name, original)
        self._working_digits = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"charprime.{layer}")
            except ImportError:
                continue
        wd = getattr(modules.get("arith"), "working_digits", None)
        self._working_digits = wd if callable(wd) else None
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "charprime" or name.startswith("charprime.")]
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                key = f"{layer}.{name}"
                if name.startswith("_") or key in SKIP or not _is_own_function(fn, mod):
                    continue
                wrapper = self._wrap(fn, key, layer)
                for ns in namespaces:
                    for ref, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._patch(ns, ref, wrapper)
        cls = getattr(modules.get("arith"), "HighPrecReal", None)
        if isinstance(cls, type):
            for name in HPR_OPS:
                if name in vars(cls):
                    self._patch(cls, name, self._wrap(vars(cls)[name], "arith.hpr_ops", "arith"))
            for name in HPR_LEAVES:
                attr = vars(cls).get(name)
                if isinstance(attr, classmethod):
                    key = f"arith.HighPrecReal.{name}"
                    self._patch(cls, name, classmethod(self._wrap(attr.__func__, key, "arith")))

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> bool:
        """Put every original back; True when no wrapper of this tracer is left
        in any ``charprime.*`` namespace or on HighPrecReal."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        return not self.leftovers()

    def leftovers(self) -> list[str]:
        """The bindings that still hold one of this tracer's wrappers."""
        owners = [(name, mod) for name, mod in sorted(sys.modules.items())
                  if name == "charprime" or name.startswith("charprime.")]
        cls = getattr(sys.modules.get("charprime.arith"), "HighPrecReal", None)
        if isinstance(cls, type):
            owners.append(("HighPrecReal", cls))
        return [f"{owner}.{ref}" for owner, ns in owners for ref, obj in list(vars(ns).items())
                if id(getattr(obj, "__func__", obj)) in self._wrappers]

    def start_op(self, op: int) -> None:
        """Mark the start of op number ``op``: spans are tagged with it, and
        the distinct ratios count argument sets within one op."""
        self._fold_keys()
        self.op = op

    def _fold_keys(self) -> None:
        for stat in self.stats.values():
            if stat.keys:
                stat.distinct += len(stat.keys)
                stat.keys.clear()

    def _wrap(self, fn, key: str, layer: str):
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat(layer, key in KEYED)
        stack = self._stack
        hot = key in HOT
        counts_items = key == "primes.odd_primes"
        probe = key == "exclusion.composite_tail_bound"
        w_value_stat = None

        def traced(*args, **kwargs):
            nonlocal w_value_stat
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1], stat]
            else:
                frame = [0.0, self._next_id, stat]
                self._next_id += 1
            stat.calls += 1
            if stat.keys is not None:
                wd = self._working_digits() if self._working_digits else None
                try:
                    stat.keys.add((args, tuple(sorted(kwargs.items())), wd))
                except TypeError:
                    stat.keys.add(repr((args, kwargs, wd)))
            if probe:
                if w_value_stat is None:
                    w_value_stat = self.stats.get("logmethod.w_value")
                if parent[2] is w_value_stat and w_value_stat is not None:
                    stat.probes += 1
            stat.active += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stat.active -= 1
                dt = t1 - t0
                if not stat.active:
                    stat.incl += dt
                stat.self += dt - frame[0]
                parent[0] += dt
                if not hot:
                    self.spans.append((self.op, frame[1], parent[1], key,
                                       t0 - self._t0, t1 - self._t0))
            if counts_items:
                stat.items += len(result)
            return result

        traced.__wrapped__ = fn
        self._wrappers[id(traced)] = traced
        return traced

    # -- output --------------------------------------------------------------

    def raw(self) -> dict:
        """Summable per-function totals for the parent process."""
        self._fold_keys()
        return {key: {"layer": s.layer, "calls": s.calls, "incl": s.incl, "self": s.self,
                      "distinct": None if s.keys is None else s.distinct,
                      "items": s.items, "probes": s.probes}
                for key, s in self.stats.items()}


def _is_own_function(obj, mod) -> bool:
    """A plain function defined in ``mod``, or a cache wrapper around one
    (``functools.cache``), so that memoising a function keeps it traced."""
    fn = inspect.unwrap(obj)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


# ---------------------------------------------------------------------------
# Per-layer metrics, computed in the parent from summed raw totals
# ---------------------------------------------------------------------------

def merge_raw(into: dict, raw: dict) -> None:
    for key, r in raw.items():
        acc = into.setdefault(key, {"layer": r["layer"], "calls": 0, "incl": 0.0, "self": 0.0,
                                    "distinct": None, "items": 0, "probes": 0})
        for field in ("calls", "incl", "self", "items", "probes"):
            acc[field] += r[field]
        if r["distinct"] is not None:
            acc["distinct"] = (acc["distinct"] or 0) + r["distinct"]


def _calls(key):
    return [key], lambda raw, ops: raw[key]["calls"] / ops


def _incl(key):
    return [key], lambda raw, ops: raw[key]["incl"] / ops


def _distinct(key):
    return [key], lambda raw, ops: raw[key]["distinct"] / max(raw[key]["calls"], 1)


def _layer_self(layer):
    return [], lambda raw, ops: sum(r["self"] for r in raw.values() if r["layer"] == layer) / ops


# name -> (unit, better, (keys the metric needs, f(raw, ops))).  Counts and
# times are per op; a ratio over zero calls reads 0.
PER_LAYER = {
    "primes.nth_odd_prime.calls": ("calls/op", "lower", _calls("primes.nth_odd_prime")),
    "primes.odd_primes.items": ("items/op", "lower", (
        ["primes.odd_primes"], lambda raw, ops: raw["primes.odd_primes"]["items"] / ops)),
    "primes.items_per_call": ("items/call", "lower", (
        ["primes.odd_primes"], lambda raw, ops: raw["primes.odd_primes"]["items"]
        / max(raw["primes.odd_primes"]["calls"], 1))),
    "primes.self_s": ("s/op", "lower", _layer_self("primes")),
    "exclusion.step.calls": ("calls/op", "lower", _calls("exclusion.step")),
    "exclusion.run.calls": ("calls/op", "lower", _calls("exclusion.run")),
    "exclusion.composite_tail_bound.calls": ("calls/op", "lower",
                                             _calls("exclusion.composite_tail_bound")),
    "exclusion.self_s": ("s/op", "lower", _layer_self("exclusion")),
    "logmethod.w_value.calls": ("calls/op", "lower", _calls("logmethod.w_value")),
    "logmethod.w_value.distinct_ratio": ("ratio", "higher", _distinct("logmethod.w_value")),
    "logmethod.depth_probes_per_w": ("probes/call", "lower", (
        ["exclusion.composite_tail_bound", "logmethod.w_value"],
        lambda raw, ops: raw["exclusion.composite_tail_bound"]["probes"]
        / max(raw["logmethod.w_value"]["calls"], 1))),
    "logmethod.assemble_O.s": ("s/op", "lower", _incl("logmethod.assemble_O")),
    "logmethod.closed_form_scan.s": ("s/op", "lower", _incl("logmethod.closed_form_scan")),
    "logmethod.self_s": ("s/op", "lower", _layer_self("logmethod")),
    "beta.beta_closed.calls": ("calls/op", "lower", _calls("beta.beta_closed")),
    "beta.beta_closed.distinct_ratio": ("ratio", "higher", _distinct("beta.beta_closed")),
    "beta.self_s": ("s/op", "lower", _layer_self("beta")),
    "arith.constant.calls": ("calls/op", "lower", _calls("arith.constant")),
    "arith.constant.distinct_ratio": ("ratio", "higher", _distinct("arith.constant")),
    "arith.constant.s": ("s/op", "lower", _incl("arith.constant")),
    "arith.ln_fraction.calls": ("calls/op", "lower", _calls("arith.ln_fraction")),
    "arith.ln_fraction.s": ("s/op", "lower", _incl("arith.ln_fraction")),
    "arith.hpr_ops.calls": ("calls/op", "lower", _calls("arith.hpr_ops")),
    "arith.hpr_ops.s": ("s/op", "lower", _incl("arith.hpr_ops")),
    "arith.self_s": ("s/op", "lower", _layer_self("arith")),
    "report.build_table.calls": ("calls/op", "lower", _calls("report.build_table")),
    "report.build_table.s": ("s/op", "lower", _incl("report.build_table")),
    "report.self_s": ("s/op", "lower", _layer_self("report")),
    "checks.run_checks.s": ("s/op", "lower", _incl("checks.run_checks")),
    "checks.self_s": ("s/op", "lower", _layer_self("checks")),
    "cli.main.s": ("s/op", "lower", _incl("cli.main")),
    "cli.self_s": ("s/op", "lower", _layer_self("cli")),
}
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def layer_metrics(raw: dict, ops: int, overhead_ratio: float) -> tuple[dict, list]:
    """The per-layer metrics with units, and the names left absent because a
    function they need was not found."""
    metrics, absent = {}, []
    for name, (unit, _better, (needs, f)) in PER_LAYER.items():
        if all(key in raw for key in needs):
            metrics[name] = {"value": f(raw, ops), "unit": unit}
        else:
            absent.append(name)
    name, unit, _better = OVERHEAD
    metrics[name] = {"value": overhead_ratio, "unit": unit}
    return metrics, absent
