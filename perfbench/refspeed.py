"""Host-speed reference that the benchmark's timings are rescaled by.

The hosts this benchmark runs on are shared: the same work can take up to
twice as long from one minute to the next, and raw timings of identical runs
spread by 15-45%.  A fixed kernel of the library's kind of work (a pure-Python
512-bit Montgomery multiply and modular add, written here so that no change to
the library moves it) is timed alongside the measured work, and every timing
is rescaled to the host speed at which one kernel takes ``REF_KERNEL_S``:

    seconds = raw seconds * REF_KERNEL_S / mean kernel time around the work

Raw seconds are reported next to the rescaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time

clock = time.perf_counter

REF_KERNEL_S = 250e-6     # nominal kernel time; about one fast kernel here
_P = (1 << 511) - 187     # any odd 511-bit modulus will do
_R_BITS = 512
_MASK = (1 << _R_BITS) - 1
_PINV = -pow(_P, -1, 1 << _R_BITS) & _MASK


def kernel(rounds: int = 100) -> int:
    p, mask, pinv = _P, _MASK, _PINV
    x = 0x1234567890ABCDEF1234567890ABCDEF
    y = (p >> 3) + 12345
    for _ in range(rounds):
        t = x * y
        m = ((t & mask) * pinv) & mask
        r = (t + m * p) >> _R_BITS
        x = r - p if r >= p else r
        s = x + y
        x = s - p if s >= p else s
    return x


def kernel_seconds() -> float:
    t0 = clock()
    kernel()
    return clock() - t0


class SpeedProbe:
    """Times the kernel every `interval` seconds from a SIGALRM handler.

    The handler runs between bytecodes of whatever the main thread is doing,
    so the samples cover the inside of long library calls too; it costs about
    one percent of the run.
    """

    def __init__(self, interval: float = 0.025, pad: float = 0.25):
        self.interval = interval
        self.pad = pad
        self.starts = []
        self.seconds = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = clock()
        kernel()
        self.seconds.append(clock() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """REF_KERNEL_S over the mean kernel time within `pad` of [t0, t1];
        all samples when none fall there."""
        lo = bisect.bisect_left(self.starts, t0 - self.pad)
        hi = bisect.bisect_right(self.starts, t1 + self.pad)
        window = self.seconds[lo:hi] or self.seconds
        if not window:
            window = [kernel_seconds()]
        return REF_KERNEL_S * len(window) / sum(window)
