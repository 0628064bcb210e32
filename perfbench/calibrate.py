"""Machine speed, measured by timing a fixed reference kernel.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to a factor of two over tens of seconds as other tenants load it; the
drift shows the same in CPU time as in wall time. The reference kernel is
benchmark code that no change to eprsim touches: the numpy work eprsim's
layers are made of (random gathers and reductions over complex arrays,
unique, argsort, searchsorted) on a fixed seeded input. It is timed
between the workload's operations, and each operation's time is scaled by
``REF_NOMINAL_S / reference time`` to seconds at the machine's nominal speed.
A change to eprsim moves the measured time and not the reference, so it
shows in full; a change in the machine's speed moves both and largely
cancels.

The kernel makes a 2 MiB complex array and gathers it whole at random
six times. Of the kernels tried (see README.md), its time tracked the
time of all four workloads best, CLI processes included. Its temporaries
come to about 10 MiB, which a worker's peak resident set includes.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_SEED = 0x5EED

# The kernel's time on an otherwise idle two-vCPU Xeon VM (the machine of
# perfbench/BASELINE.md); a fixed constant, so that scaled times read in
# seconds.
REF_NOMINAL_S = 0.030
REF_SIZE = 1 << 17       # complex128 elements: 2 MiB
REF_PASSES = 6           # whole random gathers per call
REF_KEYS = 1 << 16       # keys sorted and searched per call
READ_INTERVAL_S = 0.5    # least time between two readings
READ_SHARE = 0.06        # sample time per reading, as a share of the time since the last
READ_WINDOW_S = 3.0      # readings this close before or after an operation scale it


def reference() -> float:
    """A fixed amount of gather, reduction and sorting work; returns a checksum."""
    rng = np.random.default_rng(REF_SEED)
    x = rng.standard_normal(REF_SIZE) + 1j * rng.standard_normal(REF_SIZE)
    acc = 0j
    for _ in range(REF_PASSES):
        idx = rng.integers(0, REF_SIZE, size=REF_SIZE)
        acc += np.sum(np.conj(x[idx]) * x[idx])
    keys = rng.integers(0, 1 << 40, size=REF_KEYS)
    uniq, inverse = np.unique(keys, return_inverse=True)
    order = np.argsort(keys)
    pos = np.searchsorted(uniq, keys[order])
    return acc.real + float(pos[5]) + float(inverse[3])


def scale(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference took ``ref_s``, at nominal speed."""
    return seconds * REF_NOMINAL_S / ref_s


class Meter:
    """Readings of the reference kernel's time, taken between operations.

    A reading is the median of one or more samples of the kernel. After an
    operation that ends ``READ_INTERVAL_S`` or more after the last reading,
    ``after_op`` takes a reading whose samples add up to about
    ``READ_SHARE`` of the time since then, so a long operation is followed
    by a precise reading and short ones by cheap ones. ``scaled_ops``
    scales each operation by the mean of two readings: the median of those
    taken in the ``READ_WINDOW_S`` seconds, or the operation's own length
    if longer, before it, and the median of those taken as long after it
    (the nearest one on a side that has none). ``spent`` is the wall time
    of all samples, which the caller subtracts from what it times.
    """

    def __init__(self):
        self.readings: list[tuple[float, float]] = []   # (when, reference seconds)
        self.ops: list[tuple[float, float, float]] = []  # (start, end, seconds)
        self.samples = 0
        self.spent = 0.0
        reference()  # warm-up: first numpy calls

    def read(self, n: int) -> float:
        """Take ``n`` samples; the reading is their median."""
        taken = []
        t_start = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            reference()
            taken.append(time.perf_counter() - t0)
        t_end = time.perf_counter()
        value = statistics.median(taken)
        self.readings.append(((t_start + t_end) / 2, value))
        self.samples += n
        self.spent += t_end - t_start
        return value

    def after_op(self, seconds: float) -> None:
        end = time.perf_counter()
        self.ops.append((end - seconds, end, seconds))
        since = end - self.readings[-1][0]
        if since >= READ_INTERVAL_S:
            self.read(max(1, round(READ_SHARE * since / self.readings[-1][1])))

    def median(self) -> float:
        """Median of all readings."""
        return statistics.median(value for _, value in self.readings)

    def scaled_ops(self) -> list[float]:
        """Each operation's seconds at nominal speed, in the order they ran."""
        when = [t for t, _ in self.readings]
        values = [v for _, v in self.readings]
        out = []
        for start, end, seconds in self.ops:
            window = max(READ_WINDOW_S, seconds)
            lo = bisect.bisect_left(when, start - window)
            mid = bisect.bisect_left(when, start)
            hi = bisect.bisect_right(when, end + window)
            after_first = bisect.bisect_right(when, end)
            before = values[lo:mid] or values[max(0, mid - 1):mid] or values[mid:mid + 1]
            after = values[after_first:hi] or values[after_first:after_first + 1] or before
            ref = (statistics.median(before) + statistics.median(after)) / 2
            out.append(scale(seconds, ref))
        return out
