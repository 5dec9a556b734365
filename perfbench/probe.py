"""Sample the host's speed while a command runs.

The host's speed changes from one second to the next, by more than the
benchmark's bounds.  A thread in the worker wakes every INTERVAL_S and times
``probe``, a fixed piece of pure-Python work of under a millisecond that
imports nothing from the program, so a change to the program cannot move it.
The mean probe time over a command says how fast the host was while that
command ran; run.py scales the command's time by it.
"""

import threading
import time
from fractions import Fraction

INTERVAL_S = 0.05


def probe():
    """Big-int polynomial product and a small dict of tuples and Fractions,
    the kinds of work the program does; returns the duration."""
    t0 = time.perf_counter()
    a = [(3 ** i) % 1000003 for i in range(24)]
    b = [i * i + 1 for i in range(24)]
    c = [0] * 47
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    d = {}
    for i in range(400):
        d[i * 7919 % 401, i & 7] = Fraction(i, 7)
    return time.perf_counter() - t0


class Sampler:
    """Times ``probe`` every INTERVAL_S on a daemon thread until stopped.

    The thread holds the GIL only while it probes: about 20 probes a second
    of under a millisecond each, so about 2% of the command's time."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(probe())

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.samples
