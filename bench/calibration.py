"""A fixed pure-Python loop that gauges the CPU's current speed.

On the shared machines this benchmark runs on, CPU speed changes by up to
1.8x over stretches of seconds to minutes, and CPU time changes with it, so a
run alone cannot tell a slower program from a slower machine.  Every timing
is therefore scaled by REFERENCE_S / (time of this loop, measured just
before and after it): the figures read as on a CPU where the loop takes
REFERENCE_S.

The loop is a frozen imitation of the minor search's inner loop: coordinate
elimination over cycle-space bitmasks, minimal supports by Gray-code XOR,
then Counter and frozenset work on the result.  It lives in the benchmark,
so changes to gf2minor do not touch it.  Tracked against replay passes, its
ratio to the pass time varied by about 4%, against 8% for a smaller loop.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, islice
from random import Random
from time import perf_counter

REFERENCE_S = 0.020  # about the loop's median on a 2.1 GHz Xeon vCPU

_N = 18
_RNG = Random(20121205)
_CYCLES = tuple(_RNG.getrandbits(12) | (1 << (12 + j)) for j in range(6))
_LABELS = tuple(f"e{i}" for i in range(_N))


def calibration_s() -> float:
    """Wall time of one run of the loop, in seconds."""
    t0 = perf_counter()
    acc = 0
    for combo in islice(combinations(range(_N), 11), 0, None, 10):
        keep = 0
        for i in combo:
            keep |= 1 << i
        vectors = _CYCLES
        for d in range(_N):
            bit = 1 << d
            if keep & bit:
                continue
            pivot, rest = 0, []
            for v in vectors:
                if v & bit:
                    if pivot:
                        rest.append(v ^ pivot)
                    else:
                        pivot = v
                else:
                    rest.append(v)
            if pivot:
                vectors = rest
        if len(vectors) < 2:
            continue
        supports, x = [], 0
        for g in range(1, 1 << len(vectors)):
            x ^= vectors[(g & -g).bit_length() - 1]
            supports.append(x)
        supports.sort(key=int.bit_count)
        minimal: list[int] = []
        for s in supports:
            if not any(m & s == m for m in minimal):
                minimal.append(s)
        acc += len(Counter(m.bit_count() for m in minimal))
        acc += len(frozenset(_LABELS[b] for b in range(_N) if minimal[0] >> b & 1))
    if acc <= 0:
        raise RuntimeError("calibration loop did no work")
    return perf_counter() - t0
