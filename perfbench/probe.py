"""How fast the host runs Python right now.

On a shared host the same computation runs up to a third faster or slower
from one run to the next, in spells of a few seconds.  ``probe`` times a
fixed pure-Python loop of the dict, tuple and integer work locring does; a
time measured next to it is scaled to a host on which the loop takes
REFERENCE_S, about its time on a 2.1 GHz Xeon.  This module imports only
``time``, so a set-up child can use it before it times importing locring.
"""

import time

LOOPS = 30000
REFERENCE_S = 0.012


def probe():
    """Seconds the probe loop takes now."""
    start = time.perf_counter()
    d = {}
    for i in range(LOOPS):
        k = (i & 255, (i >> 3) & 63)
        d[k] = (d.get(k, 0) + i * 7) % 32003
    return time.perf_counter() - start
