"""Wall times corrected for the speed the machine runs at just then.

On a shared host the same pure-Python work can take twice as long in one
minute as in the next, and the speed moves within seconds.  CPU time slows
with it, so it is not stolen time that a CPU clock would leave out, and a run
of tens of seconds cannot average it away.

So ``Clock`` samples the machine's speed while it times a call: it runs a
fixed reference kernel (256-bit complex mpmath arithmetic and
coefficient-dict products, the kind of work talex does) just before the
call, every ``PERIOD`` seconds during it (from a SIGALRM handler), and just
after it.  The kernels' own time is taken out of the call's wall time, and
the rest is scaled by ``REFERENCE_S / (mean kernel time)``.  The result
reads in *reference seconds*: the time the call would take on a machine
where one kernel pass takes exactly ``REFERENCE_S``.  A change to the
program moves it as it moves the wall time; a change of machine speed
cancels out.  The kernel lives here, outside talex, so no change to talex
moves it.

``WallClock`` has the same interface and only reads the wall clock; the
traced passes use it.
"""

import signal
import time

from mpmath import mp, mpc, mpf

# one kernel pass on the machine the benchmark was written on, at a typical
# speed (2 cores, Python 3.11, mpmath 1.3 pure-Python backend), so reference
# seconds read close to that machine's wall seconds
REFERENCE_S = 0.010
PERIOD = 0.1        # seconds between speed samples during a call


def kernel():
    """A fixed amount of work: Horner steps and Laurent-style products of
    256-bit complex coefficient dicts."""
    with mp.workprec(256):
        z = mpc(mpf(9) / 10, mpf(3) / 10)
        a = {e: mpc(mpf(e + 1) / 7, mpf(1) / (e + 7)) for e in range(-4, 5)}
        b = {e: mpc(mpf(1) / (e + 5), mpf(e) / 11) for e in range(-3, 4)}
        acc = mpc(0)
        for _ in range(10):
            prod = {}
            for ea, ca in a.items():
                for eb, cb in b.items():
                    prod[ea + eb] = prod.get(ea + eb, 0) + ca * cb
            for e in sorted(prod):
                acc = acc * z + prod[e]
            acc /= abs(acc) + 1
    return acc


def probe():
    """Seconds one kernel pass takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class WallClock:
    """Plain wall time: reference seconds equal wall seconds."""

    def time(self, fn, *args):
        """(fn(*args), wall seconds, reference seconds)."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        return result, wall, wall


class Clock:
    """Times calls in reference seconds.  Consecutive calls share the probe
    between them."""

    def __init__(self):
        probe()                 # warm up: first-call costs are not speed
        self.last = probe()
        self.samples = None     # probe times of the call being timed
        self.spent = 0.0        # seconds the in-call probes took

    def _sample(self, signum, frame):
        if self.samples is None:    # a late signal after the call ended
            return
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def time(self, fn, *args):
        """(fn(*args), wall seconds, reference seconds).  The wall seconds
        leave out the in-call probes."""
        self.samples, self.spent = [self.last], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            samples, self.samples = self.samples, None
            signal.signal(signal.SIGALRM, previous)
        wall -= self.spent
        self.last = probe()
        samples.append(self.last)
        return result, wall, wall * REFERENCE_S * len(samples) / sum(samples)
