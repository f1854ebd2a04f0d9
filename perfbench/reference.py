"""Machine-speed reference for the benchmark's timings.

The speed of a shared VM drifts: on the 2-vCPU development VM the same gca2
job took 31-61 ms over a minute and a half, in phases tens of seconds long.
A small arithmetic loop, a large dict walk, CPU pinning and longer runs all
failed to take that drift out of the figures.  What tracks it is work of
gca2's kind in code of its own: ``kernel`` runs exchange steps on
dict-of-tuple Laurent polynomials with Python ints, then sorts and renders
records as ``pairs`` output is made.  Interleaved with a gca2 job, the
job-to-kernel time ratio stayed within about 5% while the job's own time
moved by a third.

The harness times the kernel between jobs and scales each job's time by
``REFERENCE_S / kernel median`` of its pass, so the benchmark's times are
seconds at the speed the development VM had when ``REFERENCE_S`` was
measured.  The kernel shares no code with gca2, so no change to gca2 can
move it.
"""

from __future__ import annotations

import heapq
import json
from itertools import product
from time import perf_counter

# median kernel time on the development VM (2 vCPUs, Intel Xeon, Python 3.11.7);
# it fixes the unit of the benchmark's reference seconds
REFERENCE_S = 0.0042


def _mul(f, g):
    out = {}
    for (a1, a2), c1 in f.items():
        for (b1, b2), c2 in g.items():
            e = (a1 + b1, a2 + b2)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _add_const(f, c):
    out = dict(f)
    out[(0, 0)] = out.get((0, 0), 0) + c
    return out


def _div(f, g):
    """Exact quotient by eliminating the least term in graded order."""
    fm1, fm2 = min(a for a, _ in f), min(b for _, b in f)
    gm1, gm2 = min(a for a, _ in g), min(b for _, b in g)
    f = {(a - fm1, b - fm2): c for (a, b), c in f.items()}
    g = {(a - gm1, b - gm2): c for (a, b), c in g.items()}
    order = lambda e: (e[0] + e[1], e[0])
    g1, g2 = min(g, key=order)
    rest = [(e, c) for e, c in g.items() if e != (g1, g2)]
    rem, quot = dict(f), {}
    heap = [(order(e), e) for e in rem]
    heapq.heapify(heap)
    while rem:
        e = heapq.heappop(heap)[1]
        if e not in rem:
            continue
        c = rem.pop(e)
        q1, q2 = e[0] - g1, e[1] - g2
        quot[(q1, q2)] = c
        for (b1, b2), gc in rest:
            ee = (q1 + b1, q2 + b2)
            s = rem.get(ee, 0) - c * gc
            if s:
                if ee not in rem:
                    heapq.heappush(heap, (order(ee), ee))
                rem[ee] = s
            else:
                rem.pop(ee, None)
    return {(a + fm1 - gm1, b + fm2 - gm2): c for (a, b), c in quot.items()}


def kernel():
    """Seconds for one fixed slice of reference work."""
    t0 = perf_counter()
    polys = ((1, 2, 1), (1, 2, 2, 1))
    xs = {1: {(1, 0): 1}, 2: {(0, 1): 1}}
    for k in range(2, 6):
        p = polys[k % 2]
        acc = {(0, 0): p[-1]}
        for c in reversed(p[:-1]):
            acc = _add_const(_mul(acc, xs[k]), c)
        xs[k + 1] = _div(acc, xs[k - 1])
    records = sorted(product(range(3), repeat=5), key=lambda s: (s[::-1], s))
    for s in records:
        json.dumps({"s1": list(s), "m1": sum(s)}, separators=(",", ":"))
    return perf_counter() - t0
