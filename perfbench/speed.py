"""CPU-speed probe for a shared machine.

The benchmark's host shares its cores with other tenants, and its speed
for pure-Python work drifts by up to a factor of two within seconds, for
CPU time as much as for wall-clock time.  The probe times a fixed stdlib
kernel of the same nature as wallx's work (rational sums reduced by gcd,
accumulated in a dict).  It works on bare integers, so it allocates no
object the garbage collector tracks, and the size of wallx's heap does
not change its time.  Timings are reported scaled to reference speed, the
speed at which the kernel takes ``REFERENCE_S``: a measured time t next
to a probe reading p becomes t * REFERENCE_S / p.
"""

import math
import statistics
import time

REFERENCE_S = 0.0003       # typical kernel time on the 2-core host the benchmark was tuned on


def kernel():
    num, den = {}, {}
    for i in range(1, 41):
        for j in range(1, 21):
            key = (i % 7) * 5 + j % 5
            a, b = num.get(key, 0), den.get(key, 1)
            n, d = a * j + i * b, b * j
            g = math.gcd(n, d)
            num[key], den[key] = n // g, d // g
    return num, den


def probe(repeats=3):
    """Median of a few kernel runs, in seconds.  The median, not the
    minimum: the slowdowns to follow come in bursts, and the fastest run
    would pick the gaps between them."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
