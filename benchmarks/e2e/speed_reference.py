"""A fixed job that measures how fast the machine is right now.

The sandbox's speed changes by up to a factor of two in regimes that
last minutes (see README, "Steadiness").  The harness runs this script
in a fresh process before and after every window and divides the
window's timings by ``wall / NOMINAL_S`` (``workloads.machine_factor``),
so a number reads the same in a slow regime as in a fast one.

The job imports nothing from ``repro``, so no change to the program can
move it.  It does what the engines do -- tuples in sets and dicts, sorts,
numpy ``unique`` and ``argsort`` over int64 -- on fixed data.
"""

import numpy as np

rows = [(i * 7919 % 100003, i * 104729 % 100019) for i in range(24000)]
members = set(rows)
index = {}
for a, b in rows:
    index.setdefault(a, []).append(b)
hits = sum(1 for a, b in rows if (b, a) in members)
ordered = sorted(members, key=repr)[:10]
codes = np.arange(240000, dtype=np.int64)[::-1] * 2654435761 % 1000003
for _ in range(3):
    unique = np.unique(codes)
    codes = unique[np.argsort(-unique, kind="stable")]
