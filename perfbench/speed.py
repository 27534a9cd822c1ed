"""Machine-speed probe: timed metrics in reference seconds.

The shared host this benchmark runs on changes speed by up to 1.7x over
seconds and by +-20% over minutes, for every kind of Python code alike.
`SpeedProbe` samples that speed while an operation runs: a SIGALRM timer
interrupts the process every INTERVAL_S and the handler times one fixed
piece of integer work, `probe_work()`, that uses nothing from ksalgebra.
The time the handler takes is subtracted from the operation, and the
operation's remaining wall time is scaled by NOMINAL_S / (mean probe time
over the same stretch):

    reference seconds = wall seconds * NOMINAL_S / mean probe seconds

that is, the wall time the operation would take on a machine where one
probe takes NOMINAL_S (about what a 2-vCPU Sapphire Rapids KVM guest
gives).  A change to ksalgebra moves the operation and not the probe, so
it shows in full; a slow spell of the host moves both and cancels.

Import nothing here that ksalgebra imports, so that a fresh process can
start the probe before it times `import ksalgebra`.
"""

import signal
import time

INTERVAL_S = 0.01
NOMINAL_S = 0.0005
MIN_PROBES = 3

_perf = time.perf_counter
_ALARM = {signal.SIGALRM}


def probe_work() -> int:
    """Fixed integer work, ~0.5 ms: products of small polynomials reduced
    mod a prime, remembered in a dict."""
    a = [3, 1, 4, 1, 5, 9]
    b = [2, 7, 1, 8, 2, 8]
    seen = {}
    for k in range(64):
        c = [0] * 11
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
        a = [(c[i] + 7 * c[i + 5]) % 1000003 for i in range(6)]
        seen[tuple(a)] = k
    return len(seen)


class SpeedProbe:
    """Context manager sampling the machine's speed every INTERVAL_S.

    `samples` holds the duration of every probe so far and `spent` their
    sum.  A caller takes a `mark()` before a stretch of work; `elapsed` and
    `factor` then give that stretch's probe-free wall time and its scale to
    reference seconds.  Leaving the context stops the timer and puts the
    previous handler back.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._old_handler = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = _perf()
        probe_work()
        dt = _perf() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        for _ in range(2):  # let the interpreter specialise it first
            probe_work()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def mark(self) -> tuple[float, int, float]:
        """(wall clock, samples so far, probe seconds so far), read with the
        alarm held off so no probe falls between the three reads."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        try:
            return _perf(), len(self.samples), self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)

    def elapsed(self, mark: tuple[float, int, float]) -> float:
        """Wall seconds since `mark` less the probes run in them."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        try:
            return _perf() - mark[0] - (self.spent - mark[2])
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)

    def factor(self, mark: tuple[float, int, float]) -> float:
        """Factor from wall seconds to reference seconds over the stretch
        since `mark`.  A stretch too short for the timer to sample MIN_PROBES
        probes gets the missing ones run in line after it."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        try:
            while len(self.samples) - mark[1] < MIN_PROBES:
                self._on_alarm(signal.SIGALRM, None)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)
        probes = self.samples[mark[1]:]
        return NOMINAL_S * len(probes) / sum(probes)
