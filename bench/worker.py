"""Benchmark worker: one fresh process, one closed-loop client, no threads.

    python3 bench/worker.py --setup-only      import, report ready, sample the host, exit
    python3 bench/worker.py JOB_JSON          run the job described below

The worker imports the program, writes ``ready`` on stdout (the parent
times set-up up to that line), then calls ``charprime.cli.main(argv)``
in-process one op at a time, capturing stdout and stderr, and checks every
op's output outside the timed region.  Untraced, it samples the host's
speed all along (hostspeed.py) and reports each op's time both as
measured and corrected for the host's speed around it.  It runs its workload's block once
if the workload wants a fresh process per round, or else in rounds until
``workloads.should_stop`` says so.  The last stdout line is a JSON summary
for the parent.

Job keys: workload, seed, smoke, trace, budget_s, min_rounds, and
first_round, the number of rounds earlier workers of the run have done.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 5


def _import_program():
    sys.path.insert(0, str(SRC))
    import charprime.cli
    if not Path(charprime.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported charprime from {charprime.cli.__file__}, not {SRC}")
    return charprime.cli


def _call(main, argv):
    """Run one op: (exit code, stdout, exception text or None, start, end)."""
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crashing op is a failed op, not a failed run
            rc, error = None, f"raised {exc!r}"
        t1 = time.perf_counter()
    return rc, out.getvalue(), error, t0, t1


def _peak_rss_kb() -> int:
    # VmHWM belongs to this process image only; ru_maxrss also keeps the
    # parent's size at fork time, which exec does not reset.
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(cli, job: dict) -> dict:
    import hostspeed  # from this script's directory, which python puts on sys.path
    import workloads

    wl = workloads.WORKLOADS[job["workload"]]
    tracer = None
    if job["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    main = cli.main      # the wrapped entry point when tracing
    sampler = None if tracer else hostspeed.Sampler()

    block = wl.block(job["seed"], job["smoke"])
    # ops: [index in block, seconds, corrected seconds (untraced only)]
    ops, windows, failures, seen = [], [], [], set()
    rounds = repeated_ops = 0
    if sampler:
        sampler.start()
    while True:
        for index in workloads.round_order(job["seed"], job["first_round"] + rounds, len(block)):
            argv = block[index]
            repeated_ops += tuple(argv) in seen
            seen.add(tuple(argv))
            if tracer:
                tracer.start_op(len(ops))
            excluded = sampler.excluded if sampler else 0.0
            rc, out, error, t0, t1 = _call(main, argv)
            dt = t1 - t0 - (sampler.excluded - excluded if sampler else 0.0)
            ops.append([index, dt])
            windows.append((t0, t1))
            try:
                reason = error or wl.check(argv, rc, out)
            except Exception as exc:
                reason = f"check raised {exc!r}"
            if reason:
                failures.append(f"{' '.join(argv)}: {reason}")
        rounds += 1
        if wl.fresh_process or workloads.should_stop(
                sum(op[1] for op in ops), rounds, job["min_rounds"], job["budget_s"]):
            break
    if sampler:
        sampler.stop()
        for op, (t0, t1) in zip(ops, windows):
            op.append(hostspeed.corrected(op[1], sampler.speed_around(t0, t1)))
    summary = {"ops": ops, "failures": failures, "rounds": rounds, "repeated_ops": repeated_ops,
               "rss_kb": _peak_rss_kb(),
               "kernel_s": [dt for _, dt in sampler.samples] if sampler else [],
               "raw": None, "spans": [], "restored": True}
    if tracer:
        summary.update(restored=tracer.restore(), raw=tracer.raw(), spans=tracer.spans)
    return summary


def main() -> int:
    cli = _import_program()
    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    if sys.argv[1:] == ["--setup-only"]:
        # The host's speed, sampled in the process whose set-up was timed.
        import hostspeed
        proto.write(json.dumps([hostspeed.kernel_time() for _ in range(SETUP_SAMPLES)]) + "\n")
        return 0
    result = run_job(cli, json.loads(sys.argv[1]))
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
