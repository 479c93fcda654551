"""Capture the benchmark goldens from the current program.

    python3 bench/make_goldens.py

Writes golden/tables.json (the exact stdout of
``reproduce --table all --format json``) and golden/scan_counts.json (the
candidate count of every (max_den, tol) pair a scan seed can draw).  The
committed files were captured at the seed commit; rerun this only when a
change is meant to alter those outputs.  Each scan output is checked
against the float oracle before it is stored.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from charprime.cli import main  # noqa: E402


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def capture() -> None:
    os.environ.pop("CHARPRIME_WORKING_DIGITS", None)
    rc, out = _run(workloads.TABLES_ARGV)
    if rc != 0:
        raise SystemExit(f"reproduce exited {rc}")
    (workloads.GOLDEN_DIR / "tables.json").write_text(out)

    counts = {}
    for den, tol in workloads.scan_pairs():
        rc, out = _run(workloads.scan_argv(den, tol))
        found, edge = workloads.scan_oracle(float(workloads.SCAN_VALUE), den, float(tol))
        lines = [] if out == "no candidate found\n" else out.splitlines()
        if rc != 0 or edge or len(lines) != len(found):
            raise SystemExit(f"scan {den} {tol}: exit {rc}, {len(lines)} printed, "
                             f"oracle {len(found)} (+{len(edge)} at the edge)")
        counts[f"{den}:{tol}"] = len(lines)
    (workloads.GOLDEN_DIR / "scan_counts.json").write_text(
        json.dumps(counts, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    capture()
