"""The host's momentary speed, from a fixed pure-Python probe.

On a shared host the same CPU work can run 1.6x slower for seconds at a
time while other tenants load the cores; process CPU time grows with wall
time then, so neither clock removes it.  The timed loops run `probe()`
between items, at most once every PROBE_EVERY_S, and report times scaled by
`scale(probes)` (a whole run) or `local_scales` (each item): seconds as the
reference machine takes them at the probe's reference speed.  The probe is
benchmark code, so a change to the program does not move it.
"""

import bisect
import statistics
import time

REFERENCE_S = 0.0003  # probe() on the reference machine: 2 vCPUs, Python 3.11.7
PROBE_EVERY_S = 0.02


def probe():
    """Seconds that a fixed dict-and-integer loop takes right now."""
    t = time.perf_counter()
    d = {}
    for i in range(2000):
        d[i & 255] = d.get(i & 255, 0) + i
    return time.perf_counter() - t


def scale(probes):
    """Factor from this run's seconds to reference seconds."""
    return REFERENCE_S / statistics.fmean(probes)


def local_scales(n_items, probes, after):
    """Per-item factors from the probes on either side of each item.

    Probe j ran right after item `after[j]` (-1: before the first item).  An
    item is scaled by the mean of the probes that ran last before it and
    first after it, so a slow spell of a second or two counts against the
    items it slowed rather than against the whole run.
    """
    groups = {}
    for t, a in zip(probes, after):
        groups.setdefault(a, []).append(t)
    keys = sorted(groups)
    out = []
    for i in range(n_items):
        k = bisect.bisect_left(keys, i)  # keys[k - 1] < i <= keys[k]
        near = groups[keys[k - 1]] if k else []
        if k < len(keys):
            near = near + groups[keys[k]]
        out.append(scale(near))
    return out
