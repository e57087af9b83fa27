"""Fixed host speed probe, and the speed adjustment built on it.

The probe does the same work every time and allocates nothing while it is
timed, with the garbage collector off.  It has two parts:

* ``sweeps``: in-place NumPy sweeps over large preallocated buffers
  (array-bound code, like the tensor sweep);
* ``calls``: in-place NumPy calls on a small preallocated buffer
  (call-overhead-bound code, like the batched solve).

The shared host this benchmark was built on switches, for seconds to
minutes at a time, between a fast state and slower ones, where the same
code runs up to 2x slower: ``sweeps`` and a paper_eval call about 1.4x,
``calls`` and a newton call about 2x.  So every timing the benchmark
reports is *speed-adjusted*: its wall time times the reference time of
the workload's probe parts (``REFERENCE_MS``) over the run's median probe,
i.e. the time it would have taken on a machine where the parts take their
reference times.  The probe never calls the program, so a change to the
program moves adjusted and wall times alike.

Run as a script, this module is the probe *sidecar*: pinned to the CPU
the benchmark runs on, it probes the parts named on its command line once
per ``INTERVAL_S`` for as long as its standard input stays open, then
prints its probe times as one JSON list.  A probe's time is its CPU time,
which leaves out the time it waits while the benchmark holds the CPU, so
the sidecar follows the machine's speed through set-up, timed calls and
the service's closed loop alike, at a cost of 1-2% of the CPU.
"""

from __future__ import annotations

import gc
import json
import select
import sys
from itertools import repeat
from statistics import median
from time import process_time

import numpy as np

#: each part's time, in ms, on the reference machine adjusted times refer to
REFERENCE_MS = {"sweeps": 2.0, "calls": 6.0}
#: sidecar pause between probes, in seconds
INTERVAL_S = 1.0

_SWEEPS = 200
_WIDTH = 1 << 14
_CALLS = 5_000
_SMALL_WIDTH = 64


def probe_ms(parts: tuple[str, ...]) -> float:
    """CPU time of the fixed probe workload's ``parts``, in milliseconds."""
    a = np.full(_WIDTH, 1.0000001)
    b = np.empty_like(a)
    c = np.full(_SMALL_WIDTH, 1.0000001)
    d = np.empty_like(c)
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = process_time()
        if "sweeps" in parts:
            for _ in repeat(None, _SWEEPS):
                np.multiply(a, 0.9999999, out=b)
                np.add(b, 1.0e-9, out=a)
        if "calls" in parts:
            for _ in repeat(None, _CALLS):
                np.multiply(c, 0.9999999, out=d)
                np.add(d, 1.0e-9, out=c)
        elapsed = process_time() - begin
    finally:
        if enabled:
            gc.enable()
    if not (np.isfinite(a[0]) and np.isfinite(c[0])):
        raise RuntimeError("the speed probe computed a non-finite value")
    return elapsed * 1000.0


def speed(probes: list[float], parts: tuple[str, ...]) -> float:
    """Factor that turns wall time measured among ``probes`` into adjusted time."""
    return sum(REFERENCE_MS[part] for part in parts) / median(probes)


def sidecar(parts: tuple[str, ...]) -> list[float]:
    """Probe ``parts`` every ``INTERVAL_S`` until standard input closes."""
    probes = []
    while True:
        probes.append(probe_ms(parts))
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready and not sys.stdin.read():
            return probes


if __name__ == "__main__":
    print(json.dumps(sidecar(tuple(sys.argv[1:]))))
