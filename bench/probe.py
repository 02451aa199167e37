"""A fixed reference kernel that measures how fast the host runs right now.

On a shared VM the CPU speed drifts by up to ~1.7x over minutes, so the same
CLI call can take 3 s or 5 s.  SpeedProbe runs a small pure-Python kernel
(float arithmetic, string formatting, dict stores) from a SIGALRM handler
in between the program's bytecodes, so the kernel shares the program's CPU
and moment; run.py scales times to the speed at which one kernel run takes
REF_S.  Only `signal` and `time` are imported, so the probe can run during
a cold `import tridephase.cli` without importing anything the CLI would.
"""

import signal
import time

REF_S = 3.0e-4


def kernel() -> float:
    """Duration of one kernel run in seconds."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(300):
        acc += (i * 1.0001) ** 0.5
        table[i & 31] = f"{acc:.17g}"
    return time.perf_counter() - start


class SpeedProbe:
    """Collects kernel durations every `interval` seconds while the block runs.

    Callers subtract sum(samples) from the block's wall time.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(kernel())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
