"""charprime benchmark: end-to-end and per-layer metrics for four CLI workloads.

One run, as the command in BENCHMARK.json is invoked:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a metadata line and then, as its last stdout line, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with --trace 1
they are the per-layer ones from a traced run, plus the tracing overhead.

Every workload, timed and traced, with a table on stdout and the full
record as JSON:

    python3 bench/run.py --all [--seed N] [--seconds S] [--out FILE]

--smoke shrinks each workload to a few cheap ops, for test_bench.py.

Every time is corrected for the host's speed at the moment it was taken
(hostspeed.py): times read in seconds at a fixed reference speed.  Set-up
is timed by starting fresh workers (worker.py) that only import the
program, SETUP_PROBES times, half before the ops and half after, each
corrected by samples of the host's speed it takes itself, and taking the
median.  The ops run in rounds: each round runs the workload's
block once, in a fresh worker or in the same one (see workloads.py), until
workloads.should_stop.  Each request is then timed at the median of its
rounds.  Every op's output is checked.
Exit code 2, with no result line, when the program cannot be found or a
worker breaks down.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 50         # half before the timed rounds, half after
HARD_LIMIT_S = 170          # the whole run must end well inside 180 s
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CHARPRIME_WORKING_DIGITS", None)   # would change every output
    return env


def start_worker(job: dict | None, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (set-up seconds, its last stdout line as JSON:
    its summary, or with no job its samples of the host's speed)."""
    args = [sys.executable, str(WORKER), "--setup-only" if job is None else json.dumps(job)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, cwd=ROOT, env=_worker_env(), bufsize=0)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker overran the {HARD_LIMIT_S} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        raise HarnessError(f"worker failed (exit {proc.returncode}): "
                           f"{err.decode(errors='replace').strip()[-2000:]}")
    return setup, json.loads(out.decode().splitlines()[-1])


def setup_probe(deadline: float) -> float:
    """One worker that only imports the program: its set-up time, corrected
    for the host's speed as the worker sampled it right after set-up."""
    setup, speeds = start_worker(None, deadline)
    return hostspeed.corrected(setup, hostspeed.kernel_mean(speeds))


def run_phase(workload: str, seed: int, budget: float, min_rounds: int, smoke: bool,
              trace: bool, deadline: float) -> dict:
    """Run rounds of the workload's block until ``workloads.should_stop``:
    all in one worker, or one fresh worker per round if the workload asks
    for that."""
    wl = workloads.WORKLOADS[workload]
    phase = {"ops": [], "failures": [], "rounds": 0, "repeated_ops": 0,
             "workers": 0, "rss_kb": 0, "kernel_s": [], "raw": {}, "spans": [],
             "restored": True}
    job = {"workload": workload, "seed": seed, "smoke": smoke, "trace": trace,
           "budget_s": budget, "min_rounds": min_rounds}
    while True:
        _, res = start_worker({**job, "first_round": phase["rounds"]}, deadline)
        phase["spans"] += [[phase["workers"], *span] for span in res["spans"]]
        phase["workers"] += 1
        for key in ("ops", "failures", "rounds", "repeated_ops", "kernel_s"):
            phase[key] += res[key]
        phase["rss_kb"] = max(phase["rss_kb"], res["rss_kb"])
        phase["restored"] &= res["restored"]
        if res["raw"]:
            tracer.merge_raw(phase["raw"], res["raw"])
        if not wl.fresh_process or workloads.should_stop(
                _op_time(phase), phase["rounds"], min_rounds, budget):
            return phase


def _op_time(phase: dict) -> float:
    return sum(op[1] for op in phase["ops"])


def request_times(phase: dict, corrected: bool = True) -> list[float]:
    """Each request of the block at the median of its rounds: its
    host-speed-corrected times, or as measured."""
    times = {}
    for op in phase["ops"]:
        times.setdefault(op[0], []).append(op[2] if corrected else op[1])
    return [statistics.median(times[i]) for i in sorted(times)]


def ops_per_s(times: list[float]) -> float:
    return len(times) / sum(times)


def latency_tail(durations: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it (nearest rank)."""
    n = len(durations)
    ordered = sorted(durations)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return {"percentile": p, "value_s": ordered[rank - 1], "samples": n,
                    "beyond": n - rank}
    return None


def write_spans(path: Path, spans: list) -> None:
    fields = ("worker", "op", "id", "parent", "name", "start", "end")
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(dict(zip(fields, span))) + "\n")


def run_meta() -> dict:
    meta = {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        def git(*a):
            return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        meta["git_sha"] = git("rev-parse", "HEAD") or None
        meta["git_dirty"] = bool(git("status", "--porcelain", "--", "src"))   # the program only
    return meta


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run: the result line plus its metadata."""
    if not (ROOT / "src" / "charprime" / "__init__.py").is_file():
        raise HarnessError(f"no charprime package under {ROOT / 'src'}")
    deadline = time.perf_counter() + HARD_LIMIT_S
    start_worker(None, deadline)        # unmeasured: first import may compile or fill caches
    min_rounds = 1 if smoke else workloads.MIN_ROUNDS
    setups = []
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        plain = run_phase(workload, seed, seconds / 2, 1, smoke, False, deadline)
        traced = run_phase(workload, seed, seconds / 2, 1, smoke, True, deadline)
        phases = [plain, traced]
        overhead = (ops_per_s(request_times(plain, corrected=False))
                    / ops_per_s(request_times(traced, corrected=False)))
        metrics, absent = tracer.layer_metrics(traced["raw"], len(traced["ops"]), overhead)
        write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl", traced["spans"])
    else:
        probes = 2 if smoke else SETUP_PROBES
        setups = [setup_probe(deadline) for _ in range(probes // 2)]
        timed = run_phase(workload, seed, seconds, min_rounds, smoke, False, deadline)
        setups += [setup_probe(deadline) for _ in range(probes - len(setups))]
        phases = [timed]
        absent = []
        times = request_times(timed)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "norm_ops_per_s": {"value": ops_per_s(times), "unit": "1/s"},
            "norm_latency_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": timed["rss_kb"] / 1024, "unit": "MB"},
        }

    durations = [op[1] for p in phases for op in p["ops"]]
    failures = [f for p in phases for f in p["failures"]]
    restored = all(p["restored"] for p in phases)
    meta = {
        **run_meta(), "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "block_size": len(request_times(phases[0], corrected=False)),
        "request_s": request_times(phases[0], corrected=False),
        "request_norm_s": None if trace else request_times(phases[0]),
        "ops": [len(p["ops"]) for p in phases], "rounds": [p["rounds"] for p in phases],
        "workers": [p["workers"] for p in phases],
        "repeat_share": [p["repeated_ops"] / len(p["ops"]) for p in phases],
        "setup_samples": len(setups), "setup_probes_s": setups,
        # The host's speed through the ops: the kernel's mean time, and its
        # share of REF_S (above 1: the host ran slower than the reference).
        "kernel_mean_s": hostspeed.kernel_mean(timed["kernel_s"]) if not trace else None,
        "host_slowdown": (hostspeed.kernel_mean(timed["kernel_s"]) / hostspeed.REF_S
                          if not trace else None),
        # Plain wall-clock figures over every op, not corrected for the
        # host's speed: informative, but too sensitive to other load on a
        # shared host to carry a bound.
        "wall_ops_per_s": len(durations) / sum(durations),
        "wall_latency_p50_s": statistics.median(durations),
        "latency_tail": latency_tail(durations),
        "failed_ratio": len(failures) / len(durations), "first_failures": failures[:5],
        "absent_metrics": absent, "tracer_restored": restored,
    }
    result = {"correct": not failures and restored, "attempted": len(durations),
              "failed": len(failures), "metrics": metrics}
    return {"meta": meta, "result": result}


def run_all(seed: int, seconds: float, smoke: bool, out: str | None) -> int:
    record = {"meta": {**run_meta(), "seed": seed, "seconds": seconds, "smoke": smoke},
              "workloads": {}}
    for name in workloads.WORKLOADS:
        timed = measure(name, seed, seconds, trace=False, smoke=smoke)
        traced = measure(name, seed, seconds, trace=True, smoke=smoke)
        tm = timed["meta"]
        record["workloads"][name] = {
            "end_to_end": timed["result"]["metrics"], "per_layer": traced["result"]["metrics"],
            "attempted": timed["result"]["attempted"], "failed": timed["result"]["failed"],
            "failed_ratio": tm["failed_ratio"], "latency_tail": tm["latency_tail"],
            "ops": tm["ops"][0], "rounds": tm["rounds"][0], "repeat_share": tm["repeat_share"][0],
            "traced_run": traced["meta"], "timed_run": tm,
        }
        print(f"== {name} ({tm['block_size']} requests x {tm['rounds'][0]} rounds, "
              f"repeat share {tm['repeat_share'][0]:.0%})")
        for metric, m in timed["result"]["metrics"].items():
            print(f"  {metric:<16} {m['value']:12.6g} {m['unit']}")
        print(f"  {'failed_ratio':<16} {tm['failed_ratio']:12.6g} ratio")
        tail = tm["latency_tail"]
        if tail:
            print(f"  {'latency_tail_s':<16} {tail['value_s']:12.6g} s  "
                  f"(p{tail['percentile']:g} of {tail['samples']} ops)")
        per_layer = traced["result"]["metrics"]
        if "cli.main.s" in per_layer:
            main_s = per_layer["cli.main.s"]["value"]
            shares = ", ".join(f"{layer} {per_layer[f'{layer}.self_s']['value'] / main_s:.0%}"
                               for layer in tracer.LAYERS if f"{layer}.self_s" in per_layer)
            print(f"  self-time shares (traced): {shares}")
        for failure in tm["first_failures"] + traced["meta"]["first_failures"]:
            print(f"  FAILED {failure}")
        sys.stdout.flush()
    if out:
        Path(out).write_text(json.dumps(record, indent=1) + "\n")
    ok = all(w["failed"] == 0 and w["traced_run"]["failed_ratio"] == 0
             for w in record["workloads"].values())
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, timed and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few cheap ops per workload")
    p.add_argument("--out", help="with --all: write the full JSON record here")
    args = p.parse_args(argv)
    if not args.all and not args.workload:
        p.error("give --workload NAME or --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.smoke, args.out)
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": run["meta"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
