"""Host-speed correction for the benchmark's times.

The host this benchmark was built on is shared, and its speed swings by up
to ~2x within seconds and stays off for minutes.  A statistic inside one run
cannot remove a slow phase that covers the run, so every time is corrected
for the host's speed at the moment it was taken:

    corrected = measured * REF_S / (time of the reference kernel, then)

The reference kernel is a fixed piece of pure-Python work shaped like the
program's hot paths (Decimal arithmetic at 60 digits, and small frozen
dataclass objects built in bulk) that does not use the program, so a change
to the program never changes it.  REF_S is a constant, so corrected times
read in seconds at a host speed where the kernel takes REF_S seconds, and
stay comparable between runs, commits and phases of the host.

A ``Sampler`` times the kernel every PERIOD_S seconds of a worker's life,
from a SIGALRM handler, so samples are also taken in the middle of a long
op; ``excluded`` is the time spent in the handler, which the caller takes
out of the op's measured time.  ``speed_around`` is the kernel's mean time
over a window around an op.  A set-up probe times the kernel with
``kernel_time`` itself, right after its set-up.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from decimal import Context, Decimal
from time import perf_counter

REF_S = 0.002        # nominal kernel time; any constant works, as long as it never changes
PERIOD_S = 0.025     # between kernel samples while a worker runs
PAD_S = 0.06         # an op's window reaches this far before its start and after its end
MIN_SAMPLES = 3      # fewer in the window: take the samples nearest the op instead

_CTX = Context(prec=60)


@dataclass(frozen=True)
class _Rec:
    p: int
    residue: int
    chi: int


def kernel() -> tuple:
    acc = Decimal(0)
    for i in range(1, 150):
        d = _CTX.divide(Decimal(1), Decimal(i))
        acc = _CTX.add(acc, _CTX.multiply(d, d))
    recs = [_Rec(p, p % 4, 1 if p % 4 == 1 else -1) for p in range(3, 3000, 2)]
    return acc, recs[-1]


def kernel_time() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Sampler:
    """Times the kernel every PERIOD_S seconds while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (start, kernel seconds)
        self.excluded = 0.0        # seconds spent in samples, for the caller to take out
        self._previous = None

    def _sample(self, *_):
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.samples.append((t0, dt))
        self.excluded += perf_counter() - t0
        if self._previous is not None:
            # One-shot timer re-armed after each sample, so samples never nest.
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        for _ in range(MIN_SAMPLES):    # the last op's window needs samples after it
            self._sample()

    def speed_around(self, t0: float, t1: float) -> float:
        """The kernel time over [t0 - PAD_S, t1 + PAD_S], or over the
        MIN_SAMPLES samples nearest the op if the window holds fewer."""
        window = [dt for start, dt in self.samples if t0 - PAD_S <= start <= t1 + PAD_S]
        if len(window) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            window = [dt for _, dt in nearest]
        return kernel_mean(window)


def kernel_mean(kernel_times: list[float]) -> float:
    """The harmonic mean: samples are spaced evenly in wall time, and an op
    gets through work at a rate of 1/(kernel time), so its time at REF_S is
    its measured time times REF_S times the mean of those rates.  A sample
    slowed by a pause (a preempted sample) counts little, as the op made
    little progress through the pause."""
    return statistics.harmonic_mean(kernel_times)


def corrected(seconds: float, kernel_s: float) -> float:
    return seconds * REF_S / kernel_s
