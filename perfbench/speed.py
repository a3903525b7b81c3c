"""Machine-speed calibration of the benchmark's child processes.

The benchmark runs on a small virtual machine whose speed drifts: the same
pure-Python loop takes 21 ms in one spell and 34 ms in the next, for
seconds to minutes at a time, and process CPU time drifts with it.  Wall
times of identical `dgb` runs therefore spread by a quarter to a third.
To take most of that drift out, every untraced child samples the machine's
speed while it works: a timer interrupts it every PERIOD_S seconds, and the
handler times one call of ``calibrate()``, a fixed loop of dictionary and
tuple work that never touches dgb.  A few more samples follow the timed
work, so that short children have samples too.

The parent scales each time the child measured by
``REFERENCE_S / median(samples)``: the time the same work would have taken
on a machine where ``calibrate()`` takes exactly REFERENCE_S, a little
slower than the usual speed of a 2-vCPU Xeon virtual machine.  A change to
dgb moves the scaled time as it moves the wall time; a drift of the
machine slows the work and the samples alike, and largely cancels (on
identical `dgb verify` processes the quartile spread fell from 0.23-0.28
of the median to 0.11-0.13).  The handler's own time, about 1% of the run,
is subtracted from every reading the child reports.
"""

import signal
import statistics
import time

PERIOD_S = 0.1
REFERENCE_S = 0.001
AFTER_SAMPLES = 5


def calibrate():
    # small tuples as dictionary keys, as dgb keys monomials and shifts
    table = {}
    for i in range(2400):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i * 3 % 7
    return table


class Sampler:
    """Speed samples taken on a timer; ``spent`` is the seconds the samples
    took, to be subtracted from the child's own readings."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self):
        started = time.perf_counter()
        calibrate()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, signum, frame):
        self.spent += self._sample()

    def start(self):
        calibrate()  # warm the interpreter's specialised bytecode
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def now(self):
        """``time.monotonic()`` less the time spent sampling so far."""
        return time.monotonic() - self.spent

    def stop(self):
        """Stop the timer, take the closing samples and return the median."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        for _ in range(AFTER_SAMPLES):
            self._sample()
        return statistics.median(self.samples)
