"""Structure-keyed pool of resident evaluation contexts.

The engine's throughput story rests on never repacking for repeat traffic: a
:class:`repro.core.EvalContext` packs its fused slot tensor once, and every
later batch of structurally identical requests re-targets it with
:meth:`repro.core.EvalContext.rebind_fleet` (system rows rewritten in place)
plus :meth:`repro.core.EvalContext.set_active` (short batches mask their
unused lanes instead of shrinking the tensor).  :class:`ContextPool` owns
those warm contexts:

* keyed by ``(structure key, ring, mode)`` — the exact condition under which
  a rebind preserves the resident tensor (a wider ring would force a
  repack, so it gets its own pool entry);
* checkout/return — a checked-out context is exclusively owned by one flush;
  concurrent flushes of the same key each get their own context (a second
  warm one grows in the pool, it is not a correctness event);
* LRU-bounded on distinct structures, so a service scanning many one-off
  structures cannot grow without bound.

``packs_flat`` traffic — repeated buckets of one structure — therefore costs
exactly one pack at warmup and zero afterwards, which the regression tests
assert through the pooled context's ``packs`` counter.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from ..obs import get_telemetry

__all__ = ["ContextPool"]

_TELEMETRY = get_telemetry()


class ContextPool:
    """LRU pool of warm :class:`repro.core.EvalContext` objects.

    ``slab`` is the lane count every pooled context is built with (the
    engine's ``max_batch``); ``max_structures`` bounds how many distinct
    keys keep idle contexts warm.
    """

    def __init__(self, slab: int, max_structures: int = 32):
        if slab < 1:
            raise ValueError(f"the pool slab must be >= 1 lanes, got {slab}")
        if max_structures < 1:
            raise ValueError(f"max_structures must be >= 1, got {max_structures}")
        self.slab = int(slab)
        self.max_structures = int(max_structures)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.discards = 0
        self._idle: OrderedDict[tuple, list] = OrderedDict()
        self._checked_out = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def checkout(self, key: tuple, factory: Callable[[int], object]):
        """An exclusive warm context for ``key`` (built via ``factory`` on miss).

        ``factory(slab)`` must return a fresh context of ``slab`` lanes —
        the engine passes ``lambda batch: system.make_context(batch)``.
        """
        with self._lock:
            idle = self._idle.get(key)
            if idle:
                context = idle.pop()
                if not idle:
                    del self._idle[key]
                self.hits += 1
                self._checked_out += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("service.pool.hits")
                return context
            self.misses += 1
            self._checked_out += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.pool.misses")
        return factory(self.slab)

    def checkin(self, key: tuple, context) -> None:
        """Return a context to the pool (it becomes the warmest entry)."""
        with self._lock:
            self._checked_out = max(0, self._checked_out - 1)
            self._idle.setdefault(key, []).append(context)
            self._idle.move_to_end(key)
            while len(self._idle) > self.max_structures:
                self._idle.popitem(last=False)
                self.evictions += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("service.pool.evictions")

    def discard(self, key: tuple, context) -> None:
        """Release the checked-out ``context`` without returning it to the pool.

        A flush that raised may leave its context half-updated — rebound
        to some lanes' systems, or with inputs and resident coefficient rows
        out of step — so it must not serve the next flush.  The pool holds
        no reference to a checked-out context, so dropping it takes only
        the release; the next checkout of ``key`` finds another warm
        context or packs a fresh one.
        """
        with self._lock:
            self._checked_out = max(0, self._checked_out - 1)
            self.discards += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.pool.discards")

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Hit/miss/eviction accounting plus the current residency shape."""
        with self._lock:
            idle = {str(key): len(contexts) for key, contexts in self._idle.items()}
            total_packs = sum(
                getattr(context, "packs", 0)
                for contexts in self._idle.values()
                for context in contexts
            )
            return {
                "slab": self.slab,
                "max_structures": self.max_structures,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "discards": self.discards,
                "structures": len(idle),
                "idle_contexts": sum(idle.values()),
                "checked_out": self._checked_out,
                "idle_packs": total_packs,
            }

    def clear(self) -> None:
        with self._lock:
            self._idle.clear()
            self.hits = self.misses = self.evictions = self.discards = 0
            self._checked_out = 0
