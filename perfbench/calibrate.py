"""Reference loop that tracks how fast the shared machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.7x for tens of seconds at a time (see README.md).  Raw wall times of a
25 s run therefore spread by 15-30% between runs of the same code.  To
remove that drift, the benchmark times this fixed loop next to every
measured interval, and scales the interval to the speed at which the loop
takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / mean(loop before, loop after)

The loop uses no sumrank code, allocates no object the garbage collector
tracks beyond one small list, and touches 2 KiB of data, so a change to the
program cannot change its time; only the machine can.  It is plain
arithmetic: a loop that also read a table larger than the CPU caches tracked
the ops' speed no better.
"""

import time

# About the loop's time on a 2-vCPU Intel Xeon VM at its fastest, Python
# 3.11.7.  Any fixed value would do: it only sets the speed that scaled
# times refer to.
REFERENCE_S = 0.002

_ITERATIONS = 20000


def reference_loop():
    """Run the fixed loop once; return its wall time in seconds."""
    start = time.perf_counter()
    table = list(range(256))
    acc = 0
    for i in range(_ITERATIONS):
        acc = (acc + table[(i * 7) & 255] * i) % 65521
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """`seconds` measured between two loop timings, at reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
