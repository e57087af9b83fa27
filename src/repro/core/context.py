"""Resident evaluation contexts: pack once, sweep many times.

The per-call flow of :meth:`repro.core.SystemEvaluator.evaluate_batch` packs
the whole fused slot array into a limb tensor, runs the compiled program and
unpacks every requested output — for *every* call.  Newton's method and path
tracking call it once per iteration with inputs that differ only in the
variable slots, so almost all of that packing is repeated work; on a real
device it would be a full host-to-device transfer per step.

:class:`EvalContext` is the host-side analogue of GPU device residency:

* :meth:`EvalContext.update_inputs` packs the slot tensor **once** (on the
  first call) and afterwards updates, in place, only the rows that can
  change between sweeps — the variable slots, plus the adjusted-coefficient
  slots of non-multilinear monomials, whose common-factor powers run as
  whole-batch convolutions (:class:`repro.core.tensor.CommonFactorPlan`);
* :meth:`EvalContext.run` re-zeroes the product region (one whole-array
  store), executes the compiled :class:`repro.core.tensor.TensorProgram` on
  the resident tensor, and unpacks only the requested outputs (full
  value + gradient results, or values only for residual checks);
* :meth:`EvalContext.rebind` re-targets the context at a *structurally
  identical* system (a path tracker's next local system): the system's
  constant/coefficient rows are rewritten in place on the next update, and
  nothing is repacked.

Every execution mode exposes the same interface, so Newton and the path
tracker are mode-agnostic: ``staged``/``parallel``/``gpu``/``reference``
contexts (and vectorized contexts over rings the tensor backend cannot
carry, i.e. exact fractions) delegate each run to the evaluator's per-call
path.  A ``gpu`` context additionally annotates each run with the resident
transfer cost predicted by :meth:`repro.gpusim.TimingModel.transfer_ms` —
the first run ships the whole input region, subsequent runs only the
variable slots.

A context run is bit-identical to the corresponding per-call
``evaluate_batch``: the product region is re-zeroed before every sweep, so
the resident tensor starts each run in exactly the state a fresh pack would
produce.

A packed context also keeps the lanes' *Newton state*: every loaded input
vector as limb rows, one ``(limbs, batch, n, degree+1)`` block per plane,
with the ring of the scalars each lane holds.  Newton adds its batched
corrections to those rows (:meth:`EvalContext.apply_corrections`), the
many-path scheduler writes its predictions into them
(:meth:`EvalContext.set_state`), and :meth:`EvalContext.update_inputs` loads
them from there for a ``None`` entry — so an iterate never round-trips
through :class:`PowerSeries` between sweeps.  The row arithmetic replays the
scalar operators limb for limb (:mod:`repro.md.replica`).
"""

from __future__ import annotations

from time import perf_counter_ns as _perf_counter_ns
from typing import Sequence

import numpy as np

from ..circuits.powers import PowerTable
from ..circuits.reference import EvaluationResult
from ..errors import StagingError
from ..md import replica
from ..md.complexmd import ComplexMD
from ..md.multidouble import MultiDouble
from ..obs import get_telemetry
from ..series.series import PowerSeries
from .tensor import (
    ComplexSlotTensor,
    RowSeries,
    compile_tensor_program,
    infer_ring,
    instance_norms,
    join_rings,
    pack_exact,
    promote_planes,
    ring_planes,
    scalar_ring,
    zero_tensor,
)

__all__ = ["EvalContext"]

#: Process-wide telemetry registry; ``enabled`` is a plain attribute so the
#: disabled hot path costs exactly one attribute check per call site.
_TELEMETRY = get_telemetry()

#: Rows (lanes x non-multilinear monomials) from which an input update
#: computes the common factors as whole-batch convolutions instead of one
#: ``split_common_factor`` per lane.  A batched update costs about the same
#: at any width (2-3 ms at double doubles, 7-12 ms at quad doubles, degree 4
#: to 8); on a 2-vCPU x86-64 host the per-lane loop broke even at 4-7 rows
#: at double doubles and 7-10 at quad doubles.  32 keeps a margin, and keeps
#: a one-request service flush (a few rows) on the loop.
_BATCHED_COMMON_FACTOR_ROWS = 32
#: The same crossover for lanes loaded from their resident Newton state,
#: whose per-lane loop first builds their series from the rows.  On the same
#: host at degree 4 to 8 the plan took 1-3 ms at double doubles and 7-8 ms at
#: quad doubles at any width, the loop about 0.15 ms a row at double doubles
#: and 0.35 ms at quad doubles: even at about 8 and 20 rows.  8 puts a
#: coalesced service flush (8 lanes x 2 monomials at double doubles: 1.2 ms
#: against 2.2 ms) on the plan, and a fleet of a few paths on the loop.
_RESIDENT_COMMON_FACTOR_ROWS = 8

#: The scalar type of each multiple-double tensor ring: a Newton state
#: coefficient of another type is a plain operand of ``z + dz``.
_RING_SCALARS = {"md": MultiDouble, "cmd": ComplexMD}


class EvalContext:
    """Resident evaluation state of one system at a fixed batch size.

    Build one through :meth:`repro.core.SystemEvaluator.make_context` (or
    :meth:`repro.homotopy.PolynomialSystem.make_context`), then alternate
    :meth:`update_inputs` and :meth:`run`.  ``packs`` counts how many times
    the full slot tensor was packed — exactly one for a whole resident
    Newton run, which the test suite asserts.
    """

    def __init__(self, evaluator, batch: int, buffer=None):
        if batch < 1:
            raise StagingError(f"an evaluation context needs batch >= 1, got {batch}")
        self._evaluator = evaluator
        self._batch = int(batch)
        #: Optional externally-owned buffer (a shared-memory segment's
        #: ``buf``) the packed tensor should live in: the one pack of this
        #: context lands there, and every later in-place update is visible
        #: to other processes holding the segment — the zero-copy residence
        #: of the sharded fleet runner.
        self._buffer = buffer
        self._adopted = False
        #: None while the tensorized fast path is (still) possible; the name
        #: of the per-call mode every run delegates to otherwise.
        self._delegate_to = None if evaluator.mode == "vectorized" else evaluator.mode
        self._zs: list[list[PowerSeries]] | None = None
        self._tensor = None
        self._program = None
        self._ring: tuple[str, int] | None = None
        self._system_dirty = False
        self._packs = 0
        self._runs = 0
        # Active-instance mask (None = every instance sweeps) and the
        # optional per-instance evaluators of a fleet rebind.
        self._active: np.ndarray | None = None
        self._instance_evaluators: list | None = None
        # Row indices of the resident tensor, filled at pack time.
        self._var_slots: np.ndarray | None = None
        self._work_slots: list[np.ndarray] = []
        self._work_rows: np.ndarray | None = None
        self._work_per_instance: np.ndarray | None = None
        self._value_rows: np.ndarray | None = None
        # The unadjusted coefficients of the non-multilinear monomials, one
        # row per (instance, monomial), resident beside the tensor: the
        # operands of the batched common factor.  ``_raw_exact[b]`` is True
        # when instance b's raw coefficients all are scalars of the tensor
        # ring, so products with narrower inputs promote into it.
        self._raw = None
        self._raw_exact: np.ndarray | None = None
        self._grad_rows: np.ndarray | None = None
        # The Newton state: every lane's input vector as limb rows, one
        # (limbs, batch, n, degree+1) block per tensor plane, the ring of the
        # scalars each lane holds, and per coefficient whether that scalar is
        # a plain operand of the tensor ring (a float among multiple doubles).
        self._state: tuple[np.ndarray, ...] | None = None
        self._state_rings: list = []
        self._plain: np.ndarray | None = None
        # Telemetry-only memo caches: TimingModel predictions per active
        # count / series count, built lazily and only while telemetry is on.
        self._predicted_sweeps: dict[int, float | None] = {}
        self._timing_model = None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def evaluator(self):
        return self._evaluator

    @property
    def batch(self) -> int:
        return self._batch

    @property
    def packs(self) -> int:
        """How many times the whole slot tensor was packed (1 when resident)."""
        return self._packs

    @property
    def runs(self) -> int:
        """How many sweeps this context has executed."""
        return self._runs

    @property
    def resident(self) -> bool:
        """True when runs execute on the resident tensor (no delegation)."""
        return self._delegate_to is None and self._tensor is not None

    @property
    def ring(self) -> tuple[str, int] | None:
        """The packed tensor's ``(kind, limbs)`` ring, ``None`` before packing."""
        return self._ring

    @property
    def adopted(self) -> bool:
        """True when the resident tensor lives in the externally-owned buffer."""
        return self._adopted

    def buffer_spec(self) -> dict | None:
        """The adoption recipe of the resident tensor (``None`` before packing).

        Another process holding the same segment passes this dict to
        :func:`repro.core.tensor.adopt_buffer` to view the live tensor.
        """
        if self._tensor is None:
            return None
        return self._tensor.buffer_spec()

    @property
    def active(self) -> np.ndarray | None:
        """Indices of the instances in flight (``None`` = the whole batch)."""
        return self._active

    def set_active(self, instances) -> None:
        """Restrict sweeps and input updates to a subset of the batch.

        ``instances`` is a sequence of instance indices, a boolean mask of
        length ``batch``, or ``None`` to re-activate everyone.  Masked-out
        instances keep their resident rows untouched: their inputs stop
        being rewritten and :meth:`run_packed` neither zeroes nor recomputes
        their work region, so their outputs go stale — exactly the residency
        contract the many-path scheduler wants when paths converge or fail
        out of a fleet without the survivors repacking.  Because every
        tensor row operation is elementwise per instance, the active
        instances' results are bit-identical to a full-batch sweep.
        """
        if instances is None:
            self._active = None
            return
        mask = np.asarray(instances)
        if mask.dtype == bool:
            if mask.shape != (self._batch,):
                raise StagingError(
                    f"a boolean active mask needs shape ({self._batch},), got {mask.shape}"
                )
            mask = np.nonzero(mask)[0]
        mask = np.unique(mask.astype(np.int64))
        if mask.size and (mask[0] < 0 or mask[-1] >= self._batch):
            raise StagingError(
                f"active instance indices must lie in [0, {self._batch}), "
                f"got [{mask[0]}, {mask[-1]}]"
            )
        self._active = mask

    def _active_instances(self) -> np.ndarray:
        if self._active is None:
            return np.arange(self._batch, dtype=np.int64)
        return self._active

    def __repr__(self) -> str:
        target = "resident" if self.resident else (self._delegate_to or "unpacked")
        masked = "" if self._active is None else f", active={self._active.size}"
        return (
            f"EvalContext(batch={self._batch}, mode={self._evaluator.mode!r}, "
            f"{target}, packs={self._packs}, runs={self._runs}{masked})"
        )

    # ------------------------------------------------------------------ #
    # input updates
    # ------------------------------------------------------------------ #
    def update_inputs(self, zs: Sequence[Sequence[PowerSeries] | None]) -> None:
        """Load a batch of input vectors, packing at most once.

        The first call packs: it decides the tensor ring from the system and
        input coefficients and fills every lane, masked or not.  Every later
        call writes only the rows that can change, for the active lanes
        only — variable slots, non-multilinear adjusted coefficients, and
        (after a :meth:`rebind`) the system's constant/coefficient rows.

        Lanes whose input coefficients all are scalars of one ring
        (:func:`repro.core.tensor.scalar_ring`) form a group: its input
        series are packed into one limb block and written with one row
        assignment.  A group of at least ``_BATCHED_COMMON_FACTOR_ROWS`` rows
        (lanes x non-multilinear monomials) computes its adjusted
        coefficients with the program's
        :class:`repro.core.tensor.CommonFactorPlan`, as whole-batch
        convolutions; other lanes run
        :meth:`repro.circuits.Monomial.split_common_factor` one by one.  The
        two are bit-identical.

        The loaded inputs also become the lanes' *Newton state*, kept as limb
        rows beside the tensor (:meth:`state`).  An entry of ``zs`` may be
        ``None`` for a lane whose inputs are its state as it stands — after
        :meth:`apply_corrections` or :meth:`set_state` — so an iterate never
        round-trips through :class:`PowerSeries`.  Such lanes group by the
        ring of their scalars straight from the rows, and their groups run
        the plan from ``_RESIDENT_COMMON_FACTOR_ROWS`` rows.
        """
        zs = [None if z is None else list(z) for z in zs]
        if len(zs) != self._batch:
            raise StagingError(
                f"this context is resident for batch {self._batch}, got {len(zs)} inputs"
            )
        for z in zs:
            if z is not None:
                self._evaluator._check_inputs(z)
        if self._delegate_to is not None:
            self._zs = self._materialize(zs)
            return
        self._zs = zs
        tel = _TELEMETRY
        t0 = tel.enabled and _perf_counter_ns()
        if self._tensor is not None:
            lanes = self._active_instances()
            groups, rest = self._input_groups(zs, lanes)
            # The resident tensor can only carry rings it was packed for; a
            # wider input ring (more limbs, or complex data into a real
            # tensor) forces a repack so the results stay bit-identical to
            # the per-call evaluate_batch.  Newton and path tracking keep
            # one ring throughout, so the check runs only on lanes outside
            # every group, and never triggers on the hot path.
            if rest.size and not self._ring_carries(zs, rest):
                self._tensor = None
        if self._tensor is None:
            zs = self._zs = self._materialize(zs)
            self._pack(zs)
            if self._tensor is None:
                return
            t0 = tel.enabled and _perf_counter_ns()
            lanes = np.arange(self._batch, dtype=np.int64)
            groups, rest = self._input_groups(zs, lanes)
        elif self._system_dirty:
            self._rewrite_system_rows()
            self._system_dirty = False
        w0 = t0 and _perf_counter_ns()
        self._write_variables(zs, groups, rest)
        w1 = t0 and _perf_counter_ns()
        self._write_common_factors(zs, groups, rest)
        if t0:
            tel.record_span(
                "context.update_inputs", t0, _perf_counter_ns(), instances=int(lanes.size)
            )
            tel.count("context.input_updates")
            fused = self._evaluator.fused
            predicted = self._predicted_transfer_ms(
                fused.variable_slot_count * int(lanes.size)
            )
            if predicted is not None:
                tel.ledger("transfer", (w1 - w0) / 1e6, predicted)

    def _materialize(self, zs: list) -> list:
        """``zs`` with every ``None`` entry replaced by that lane's state."""
        missing = [b for b, z in enumerate(zs) if z is None]
        if missing:
            if self._state is None:
                raise StagingError("a lane without input series has no Newton state to load")
            for b, vector in zip(missing, self.state_vectors(missing)):
                zs[b] = vector
        return zs

    def _input_groups(self, zs, lanes: np.ndarray):
        """Split ``lanes`` by the ring their input coefficients are scalars of.

        Returns ``(groups, rest)``: each group is ``(lanes, ring, planes,
        resident)``, lanes whose every input coefficient is a scalar of one
        ring the tensor carries, as limb planes in that ring — packed by
        :func:`repro.core.tensor.pack_exact`, or, for ``resident`` groups
        (``None`` entries of ``zs``), read from the state rows.  ``rest``
        holds the other lanes.
        """
        by_ring: dict = {}
        resident: dict = {}
        for b in lanes.tolist():
            if zs[b] is None:
                resident.setdefault(self._state_rings[b], []).append(b)
            else:
                by_ring.setdefault(scalar_ring(zs[b][0].coefficients[0]), []).append(b)
        groups = []
        for ring, members in resident.items():
            members = np.asarray(members, dtype=np.int64)
            planes = tuple(plane[:, members] for plane in ring_planes(self._state, ring))
            groups.append((members, ring, planes, True))
        rest: list[int] = []
        for ring, members in by_ring.items():
            planes = None
            if ring is not None and join_rings(ring, self._ring) == self._ring:
                planes = pack_exact([s for b in members for s in zs[b]], *ring)
            if planes is None:
                rest.extend(members)
            else:
                groups.append((np.asarray(members, dtype=np.int64), ring, planes, False))
        return groups, np.asarray(rest, dtype=np.int64)

    def _ring_carries(self, zs, lanes: np.ndarray) -> bool:
        """True when the tensor ring holds the lanes' inputs without rounding."""
        ring = infer_ring(series for b in lanes.tolist() for series in zs[b])
        return ring is not None and join_rings(ring, self._ring) == self._ring

    def _write_variables(self, zs, groups, rest: np.ndarray) -> None:
        """Write the lanes' input series into every equation's variable slots.

        A group's block goes in with one row assignment per plane, widened
        into the tensor ring; the other lanes write series by series.  Lanes
        loaded from series also get them as their Newton state.
        """
        tensor = self._tensor
        stride = self._evaluator.fused.total_slots
        limbs, width = tensor.limbs, tensor.width
        equations, dimension = self._var_slots.shape
        for lanes, ring, planes, resident in groups:
            rows = (lanes * stride)[:, None, None] + self._var_slots[None, :, :]
            shape = (limbs, lanes.size, equations, dimension, width)
            for plane, state, block in zip(
                tensor.planes, self._state, promote_planes(planes, ring[1], self._ring)
            ):
                values = block.reshape(limbs, lanes.size, 1, dimension, width)
                plane[:, rows.reshape(-1), :] = np.broadcast_to(values, shape).reshape(
                    limbs, -1, width
                )
                if not resident:
                    state[:, lanes] = values[:, :, 0]
            if not resident:
                self._set_rings(lanes, ring)
        for b in rest.tolist():
            base = b * stride
            for variable, series in enumerate(zs[b]):
                tensor.write_series(self._var_slots[:, variable] + base, series)
        if rest.size:
            rows = (rest * stride)[:, None] + self._var_slots[0][None, :]
            for plane, state in zip(tensor.planes, self._state):
                state[:, rest] = plane[:, rows, :]
            scalar = _RING_SCALARS.get(self._ring[0], object)
            for b in rest.tolist():
                self._state_rings[b] = infer_ring(zs[b])
                self._plain[b] = [
                    [not isinstance(c, scalar) for c in series.coefficients] for series in zs[b]
                ]

    def _write_common_factors(self, zs, groups, rest: np.ndarray) -> None:
        """Write the lanes' adjusted coefficients of non-multilinear monomials.

        A group is batched through the program's :class:`CommonFactorPlan`
        when every product lands in the ring the scalar code promotes it to
        — the powers run in the group's ring, and the factor steps in the
        tensor ring, which is that of the coefficient times the power when
        the inputs are the tensor ring or the lanes' raw coefficients are
        (``_raw_exact``) — and when it has enough rows.  Every other lane
        runs ``split_common_factor`` on its own :class:`PowerTable` — the
        scalar oracle, kept for narrow updates, where the fixed cost of a
        batched convolution does not pay off.  A resident group needs fewer
        rows (``_RESIDENT_COMMON_FACTOR_ROWS``): its loop has to build its
        series from the rows first.
        """
        plan = self._program.common_factor
        if plan is None:
            return
        tel = _TELEMETRY
        t0 = tel.enabled and _perf_counter_ns()
        monomials = len(plan.monomials)
        tensor = self._tensor
        limbs, width = tensor.limbs, tensor.width
        stride = self._evaluator.fused.total_slots
        per_lane = [rest]
        batched_rows = 0
        for lanes, ring, planes, resident in groups:
            threshold = _RESIDENT_COMMON_FACTOR_ROWS if resident else _BATCHED_COMMON_FACTOR_ROWS
            narrow = lanes.size * monomials < threshold
            if narrow or not (ring == self._ring or self._raw_exact[lanes].all()):
                per_lane.append(lanes)
                continue
            batched_rows += lanes.size * monomials
            powers = plan.powers(
                [block.reshape(ring[1], lanes.size, plan.dimension, width) for block in planes],
                ring[1],
            )
            adjusted = plan.factors(
                promote_planes(powers, ring[1], self._ring),
                [
                    plane.reshape(limbs, self._batch, monomials, width)[:, lanes]
                    for plane in self._raw.planes
                ],
                limbs,
            )
            targets = ((lanes * stride)[:, None] + plan.coefficient_rows[None, :]).reshape(-1)
            for plane, block in zip(tensor.planes, adjusted):
                plane[:, targets, :] = block.reshape(limbs, -1, width)
        slots = plan.coefficient_rows.tolist()
        lanes_left = np.concatenate(per_lane).tolist()
        for b in lanes_left:
            z = zs[b] if zs[b] is not None else self.state_vectors([b])[0]
            base = b * stride
            polynomials = self._polynomials_of(b)
            table = PowerTable(z)
            for (equation, k), slot in zip(plan.monomials, slots):
                monomial = polynomials[equation].monomials[k]
                adjusted, _, _ = monomial.split_common_factor(z, table)
                tensor.write_series((base + slot,), adjusted)
        if t0:
            rows = batched_rows + len(lanes_left) * monomials
            path = "per-lane" if not batched_rows else "batched" if not lanes_left else "mixed"
            tel.record_span(
                "context.common_factor", t0, _perf_counter_ns(), rows=rows, path=path
            )

    def _polynomials_of(self, instance: int):
        """The polynomial list evaluated at ``instance`` (fleet-aware)."""
        if self._instance_evaluators is not None:
            return self._instance_evaluators[instance].polynomials
        return self._evaluator.polynomials

    def _pack(self, zs: list[list[PowerSeries]]) -> None:
        """First-time packing: choose the ring, allocate, compile, index rows.

        The tensor starts as zeros and gets every lane's system rows here;
        :meth:`update_inputs` then writes every lane's inputs and adjusted
        coefficients through the same row writes as any later update.  The
        result equals the per-call pack of
        :meth:`repro.core.SystemEvaluator._prepare_batch_slots` byte for
        byte, without a scalar common factor per lane.
        """
        tel = _TELEMETRY
        t0 = tel.enabled and _perf_counter_ns()
        evaluator = self._evaluator
        system_ring = evaluator._ring_of_system()
        input_ring = infer_ring(series for z in zs for series in z) if system_ring else None
        if system_ring is None or input_ring is None:
            # A ring the tensor cannot carry (exact fractions): every run of
            # this context delegates to the staged oracle path.
            self._delegate_to = "staged"
            return
        kind, limbs = join_rings(system_ring, input_ring)
        fused = evaluator.fused
        width = fused.degree + 1
        tensor = zero_tensor(kind, limbs, self._batch * fused.total_slots, width)
        if self._buffer is not None:
            tensor = self._relocate(tensor)
        self._tensor = tensor
        self._ring = (kind, limbs)
        self._state = tuple(
            np.zeros((limbs, self._batch, fused.dimension, width)) for _ in tensor.planes
        )
        self._state_rings = [None] * self._batch
        self._plain = np.zeros((self._batch, fused.dimension, width), dtype=bool)
        self._predicted_sweeps = {}
        self._timing_model = None
        self._packs += 1
        self._program = evaluator.cache.get(
            (evaluator._structure_key, "tensor-program"),
            lambda: compile_tensor_program(evaluator.fused),
        )
        plan = self._program.common_factor
        if plan is not None:
            self._raw = zero_tensor(kind, limbs, self._batch * len(plan.monomials), width)
            self._raw_exact = np.zeros(self._batch, dtype=bool)
        self._index_rows()
        # The per-call pack fills the product region with each equation's
        # ring zero, ``constant * 0`` (-0.0 for a negative float constant).
        bases = np.arange(self._batch, dtype=np.int64) * fused.total_slots
        for polynomial, work in zip(evaluator.polynomials, self._work_slots):
            zero = PowerSeries.constant(polynomial.constant.coefficients[0] * 0, fused.degree)
            tensor.write_series((bases[:, None] + work[None, :]).reshape(-1), zero)
        self._rewrite_system_rows()
        self._system_dirty = False
        if t0:
            end = _perf_counter_ns()
            tel.record_span(
                "context.pack",
                t0,
                end,
                batch=self._batch,
                ring=kind,
                limbs=limbs,
                adopted=self._adopted,
            )
            tel.count("context.packs")
            predicted = self._predicted_transfer_ms(
                evaluator.fused.input_slot_count * self._batch
            )
            if predicted is not None:
                tel.ledger("transfer", (end - t0) / 1e6, predicted)

    def _relocate(self, tensor):
        """Move the just-allocated tensor into the externally-owned buffer.

        One ``memcpy`` per limb-plane block, not a second pack: ``packs``
        stays at one per context, which the shard tests assert.  A buffer
        that cannot carry the tensor (the parent sized it for a different
        ring than the worker actually packed) is ignored — the context stays
        correct on process-local memory, merely not shared — because the
        adoption is an optimisation, never a correctness dependency.
        """
        self._adopted = False
        try:
            if tensor.nbytes > len(memoryview(self._buffer).cast("B")):
                return tensor
            spec = tensor.export_buffer(self._buffer)
            adopted = type(tensor).from_buffer(
                self._buffer,
                limbs=spec["limbs"],
                rows=spec["rows"],
                width=spec["width"],
                ring=spec["ring"],
            )
        except (TypeError, ValueError, BufferError):
            return tensor
        self._adopted = True
        return adopted

    def _index_rows(self) -> None:
        """Precompute the per-instance row indices the updates touch."""
        fused = self._evaluator.fused
        var_slots = np.empty((fused.n_equations, fused.dimension), dtype=np.int64)
        work: list[np.ndarray] = []
        for equation, (offset, schedule) in enumerate(zip(fused.offsets, fused.schedules)):
            layout = schedule.layout
            var_slots[equation] = [
                offset + layout.variable_slot(v) for v in range(fused.dimension)
            ]
            work.append(offset + np.arange(layout.forward_base, layout.total_slots))
        self._var_slots = var_slots
        self._work_slots = work
        bases = (np.arange(self._batch, dtype=np.int64) * fused.total_slots)[:, None]
        per_instance = np.concatenate(work).astype(np.int64)
        self._work_per_instance = per_instance
        self._work_rows = (per_instance[None, :] + bases).reshape(-1)
        # Output rows for the batched Newton consumers: one value row per
        # equation, and per (equation, variable) the gradient row — or -1 for
        # variables the equation does not depend on (an exactly zero series).
        self._value_rows = np.asarray(fused.value_slots, dtype=np.int64)
        grad = np.full((fused.n_equations, fused.dimension), -1, dtype=np.int64)
        for equation, gradient_map in enumerate(fused.gradient_slots):
            for variable, slot in gradient_map.items():
                grad[equation, variable] = slot
        self._grad_rows = grad

    def _rewrite_system_rows(self) -> None:
        """Write the (rebound) system's input-region series rows in place.

        Constant and multilinear-coefficient slots are input-independent, so
        one :meth:`write_series` per series covers all batch instances at
        once; the raw coefficients of non-multilinear monomials go to their
        resident rows, from which :meth:`update_inputs` computes the
        adjusted coefficients.  After a :meth:`rebind_fleet` each instance
        carries its *own* structurally identical system; instances sharing
        one evaluator object (the common case — a scheduler builds one local
        system per distinct parameter value) still get one
        :meth:`write_series` per series for the whole group.
        """
        if self._instance_evaluators is None:
            self._write_system_rows_for(
                self._evaluator, np.arange(self._batch, dtype=np.int64)
            )
            return
        groups: dict[int, list[int]] = {}
        evaluators: dict[int, object] = {}
        for b, evaluator in enumerate(self._instance_evaluators):
            groups.setdefault(id(evaluator), []).append(b)
            evaluators[id(evaluator)] = evaluator
        for key, instances in groups.items():
            self._write_system_rows_for(
                evaluators[key], np.asarray(instances, dtype=np.int64)
            )

    def _write_system_rows_for(self, evaluator, instances: np.ndarray) -> None:
        """One evaluator's constant/coefficient rows, at the given instances."""
        fused = self._evaluator.fused
        bases = instances * fused.total_slots
        for offset, schedule, polynomial in zip(
            fused.offsets, fused.schedules, evaluator.polynomials
        ):
            layout = schedule.layout
            self._tensor.write_series(
                bases + (offset + layout.constant_slot()), polynomial.constant
            )
            for k, monomial in enumerate(polynomial.monomials):
                if monomial.is_multilinear:
                    self._tensor.write_series(
                        bases + (offset + layout.coefficient_slot(k)),
                        monomial.coefficient,
                    )
        plan = self._program.common_factor
        if plan is None:
            return
        monomials = len(plan.monomials)
        coefficients = [
            evaluator.polynomials[equation].monomials[k].coefficient
            for equation, k in plan.monomials
        ]
        for position, coefficient in enumerate(coefficients):
            self._raw.write_series(instances * monomials + position, coefficient)
        self._raw_exact[instances] = pack_exact(coefficients, *self._ring) is not None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, values_only: bool = False):
        """One sweep over the resident inputs.

        Returns the same nested ``[instance][equation]`` result lists as
        :meth:`repro.core.SystemEvaluator.evaluate_batch`.  With
        ``values_only`` the gradient rows are not unpacked at all (the
        results carry empty gradients) — the cheap shape for Newton residual
        checks.  Delegating contexts strip gradients the same way, so
        callers stay mode-agnostic.
        """
        if self._zs is None:
            raise StagingError("EvalContext.run called before update_inputs")
        if self._delegate_to is not None:
            return self._delegate(values_only)
        metadata = self.run_packed()
        return self._evaluator._collect_vectorized(
            self._tensor, self._batch, metadata, values_only=values_only
        )

    def run_packed(self) -> dict:
        """One sweep that leaves every output in the resident tensor.

        The tensorized analogue of a kernel launch without a device-to-host
        copy: the compiled program runs, and values and derivatives stay in
        the packed limb tensor for the in-tensor consumers
        (:meth:`residual_norms`, :meth:`newton_system`) — nothing is unpacked
        into :class:`PowerSeries`.  Returns the sweep metadata dict.  Raises
        :class:`repro.errors.StagingError` for delegating contexts, which
        have no resident tensor to leave results in; callers check
        :attr:`resident` and fall back to :meth:`run`.
        """
        if self._zs is None:
            raise StagingError("EvalContext.run_packed called before update_inputs")
        if self._delegate_to is not None or self._tensor is None:
            raise StagingError(
                "EvalContext.run_packed needs a resident tensor; this context "
                f"delegates to {self._delegate_to or 'an unpacked path'!r}"
            )
        if self._system_dirty:
            self._rewrite_system_rows()
            self._system_dirty = False
        tel = _TELEMETRY
        t0 = tel.enabled and _perf_counter_ns()
        tensor = self._tensor
        if self._active is None:
            tensor.zero_rows(self._work_rows)
            self._program.run(tensor, self._batch)
        else:
            stride = self._evaluator.fused.total_slots
            bases = (self._active * stride)[:, None]
            tensor.zero_rows((self._work_per_instance[None, :] + bases).reshape(-1))
            self._program.run(tensor, self._batch, active=self._active)
        self._runs += 1
        evaluator = self._evaluator
        kind, limbs = self._ring
        if t0:
            end = _perf_counter_ns()
            active = self._batch if self._active is None else int(self._active.size)
            kernel = "sweep" if active == self._batch else "masked-sweep"
            tel.record_span(
                "context.sweep",
                t0,
                end,
                kind=kernel,
                batch=self._batch,
                active=active,
                limbs=limbs,
            )
            tel.gauge("sweep.active_density", active / self._batch)
            predicted = self._predicted_sweep_ms(active)
            if predicted is not None:
                tel.ledger(kernel, (end - t0) / 1e6, predicted)
        return {
            "mode": "vectorized",
            "ring": kind,
            "limbs": limbs,
            "batch": self._batch,
            "active": self._batch if self._active is None else int(self._active.size),
            "convolution_jobs": evaluator.fused.convolution_job_count,
            "addition_jobs": evaluator.fused.addition_job_count,
            "launches": self._program.launches,
            "resident_runs": self._runs,
            "packs": self._packs,
        }

    # ------------------------------------------------------------------ #
    # telemetry predictions (measured-vs-predicted ledger)
    # ------------------------------------------------------------------ #
    def _timing_model_for_ring(self):
        """A ``TimingModel`` at this context's ring, or ``None`` (memoised)."""
        if self._timing_model is None:
            try:
                from ..gpusim.timing import TimingModel

                self._timing_model = TimingModel(
                    device=self._evaluator.device, precision=self._ring[1]
                )
            except Exception:
                self._timing_model = False
        return self._timing_model or None

    def _predicted_sweep_ms(self, active: int) -> float | None:
        """Predicted wall clock of one sweep at ``active`` instances."""
        if active not in self._predicted_sweeps:
            model = self._timing_model_for_ring()
            try:
                self._predicted_sweeps[active] = (
                    None
                    if model is None
                    else model.predict(
                        self._evaluator.fused, batch=active
                    ).wall_clock_ms
                )
            except Exception:
                self._predicted_sweeps[active] = None
        return self._predicted_sweeps[active]

    def _predicted_transfer_ms(self, n_series: int) -> float | None:
        """Predicted H2D copy time of ``n_series`` series in this ring."""
        model = self._timing_model_for_ring()
        if model is None:
            return None
        planes = 2 if isinstance(self._tensor, ComplexSlotTensor) else 1
        return model.transfer_ms(n_series, self._evaluator.fused.degree, planes)

    # ------------------------------------------------------------------ #
    # in-tensor consumers (batched Newton)
    # ------------------------------------------------------------------ #
    def _require_outputs(self) -> None:
        if not self.resident or self._value_rows is None:
            raise StagingError(
                "this context has no resident outputs; run_packed it first"
            )
        if self._runs == 0:
            raise StagingError("no sweep has run yet; call run_packed first")

    def residual_norms(self) -> np.ndarray:
        """Largest value-coefficient magnitude per instance, as doubles.

        Reads the resident value rows of the last sweep directly: limb
        planes collapse to doubles exactly like
        :meth:`repro.md.MultiDouble.to_float` (and complex magnitudes are the
        moduli of the collapsed planes, matching ``abs(value.to_complex())``),
        so each entry equals the scalar
        :func:`repro.homotopy.residual_norm` of that instance's unpacked
        values.
        """
        self._require_outputs()
        stride = self._evaluator.fused.total_slots
        bases = np.arange(self._batch, dtype=np.int64) * stride
        rows = bases[:, None] + self._value_rows[None, :]
        if isinstance(self._tensor, ComplexSlotTensor):
            return instance_norms(
                (self._tensor.real[:, rows, :], self._tensor.imag[:, rows, :])
            )
        return instance_norms(self._tensor.data[:, rows, :])

    def newton_system(self, instances: Sequence[int]):
        """Gather the packed Newton systems ``J(z) dz = -F(z)`` of ``instances``.

        Returns ``(matrix, rhs)`` limb tensors shaped
        ``(limbs, m, n, n, degree+1)`` and ``(limbs, m, n, degree+1)`` for
        the ``m`` requested instances — real planes, or ``(real, imag)``
        pairs for complex rings, exactly the operands of
        :func:`repro.homotopy.batch_linsolve.solve_packed`.  The Jacobian
        rows are gathered straight from the resident derivative rows (no
        series unpacking); variables an equation does not depend on read as
        exactly zero series, and the right-hand side is the exact limbwise
        negation of the value rows, matching the scalar driver's
        ``-value``.
        """
        self._require_outputs()
        fused = self._evaluator.fused
        stride = fused.total_slots
        bases = np.asarray(list(instances), dtype=np.int64) * stride
        value_rows = bases[:, None] + self._value_rows[None, :]
        missing = self._grad_rows < 0
        grad_rows = bases[:, None, None] + np.where(missing, 0, self._grad_rows)[None, :, :]
        if isinstance(self._tensor, ComplexSlotTensor):
            planes = (self._tensor.real, self._tensor.imag)
            # Advanced indexing gathers into fresh arrays, so zeroing the
            # missing-variable blocks cannot touch the resident tensor.
            matrix = tuple(plane[:, grad_rows, :] for plane in planes)
            for plane in matrix:
                plane[:, :, missing, :] = 0.0
            rhs = tuple(-plane[:, value_rows, :] for plane in planes)
            return matrix, rhs
        matrix = self._tensor.data[:, grad_rows, :]
        matrix[:, :, missing, :] = 0.0
        rhs = -self._tensor.data[:, value_rows, :]
        return matrix, rhs

    # ------------------------------------------------------------------ #
    # the resident Newton state
    # ------------------------------------------------------------------ #
    def apply_corrections(self, lanes: Sequence[int], solution) -> None:
        """Add Newton corrections to the lanes' state rows: ``z + dz``.

        ``solution`` is the ``(limbs, len(lanes), n, degree+1)`` output of
        :func:`repro.homotopy.batch_linsolve.solve_packed` (a ``(real, imag)``
        pair for complex rings).  The sum replays :meth:`PowerSeries.__add__`
        on the scalars the rows stand for, limb for limb
        (:func:`repro.md.replica.series_add`), including the coercing branch
        where a lane still holds plain scalars (a float start in a
        multiple-double system); afterwards every corrected lane holds
        scalars of the tensor ring.  Pass ``None`` for these lanes to the
        next :meth:`update_inputs` to load the sums.
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        planes = solution if isinstance(solution, tuple) else (solution,)
        z = tuple(plane[:, lanes] for plane in self._state)
        summed = replica.series_add(
            z, replica.as_scalars(planes, self._ring), self._ring, self._plain[lanes]
        )
        for plane, block in zip(self._state, summed):
            plane[:, lanes] = block
        self._set_rings(lanes, self._ring)

    def set_state(self, lanes: Sequence[int], planes, ring: tuple[str, int]) -> None:
        """Make series of ``ring`` scalars the lanes' Newton state.

        ``planes`` holds one ``(ring limbs, len(lanes), n, degree+1)`` block
        per plane of ``ring``; they are widened into the tensor ring's rows
        exactly.  Pass ``None`` for these lanes to the next
        :meth:`update_inputs` to load them.
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        for plane, block in zip(self._state, promote_planes(planes, ring[1], self._ring)):
            plane[:, lanes] = block
        self._set_rings(lanes, ring)

    def state(self, lanes: Sequence[int]) -> tuple[tuple[np.ndarray, ...], list]:
        """Copies of the lanes' Newton state rows, and the ring of each lane.

        The rows are in the tensor ring's layout, ``(limbs, len(lanes), n,
        degree+1)`` per tensor plane; a lane whose scalars are of a narrower
        ring (plain floats in a multiple-double tensor) holds them widened
        exactly, so its leading limbs and planes are its values.
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        rings = [self._state_rings[b] for b in lanes.tolist()]
        return tuple(plane[:, lanes] for plane in self._state), rings

    def state_vectors(self, lanes: Sequence[int]) -> list[list[RowSeries]]:
        """The lanes' Newton state as series vectors, one per lane.

        A snapshot: the series are :class:`repro.core.tensor.RowSeries` over
        a copy of the rows, built into ring scalars only when read.
        """
        planes, rings = self.state(lanes)
        n = planes[0].shape[2]
        return [
            [RowSeries(tuple(plane[:, i, v] for plane in planes), ring) for v in range(n)]
            for i, ring in enumerate(rings)
        ]

    def _set_rings(self, lanes: np.ndarray, ring: tuple[str, int]) -> None:
        for b in lanes.tolist():
            self._state_rings[b] = ring
        self._plain[lanes] = ring[0] != self._ring[0]

    def _delegate(self, values_only: bool):
        """Run through the evaluator's per-call mode dispatch (non-tensor
        modes and ring fallbacks), so delegated runs cannot drift from
        :meth:`repro.core.SystemEvaluator.evaluate_batch`.

        With an active mask only the active instances are evaluated (the
        per-call path pays per instance, so masking is a real saving here);
        the returned list still has one entry per batch instance, with
        ``None`` at masked-out positions.  After a :meth:`rebind_fleet`
        every instance dispatches through its own evaluator, grouped so
        instances sharing one evaluator sweep as one batch.
        """
        if self._active is None and self._instance_evaluators is None:
            results = self._evaluator._dispatch(self._zs, mode=self._delegate_to)
        else:
            instances = [int(b) for b in self._active_instances()]
            results = [None] * self._batch
            groups: dict[int, list[int]] = {}
            evaluators: dict[int, object] = {}
            for b in instances:
                evaluator = (
                    self._evaluator
                    if self._instance_evaluators is None
                    else self._instance_evaluators[b]
                )
                groups.setdefault(id(evaluator), []).append(b)
                evaluators[id(evaluator)] = evaluator
            for key, members in groups.items():
                rows = evaluators[key]._dispatch(
                    [self._zs[b] for b in members], mode=self._delegate_to
                )
                for b, row in zip(members, rows):
                    results[b] = row
        self._runs += 1
        if self._delegate_to == "gpu":
            self._annotate_gpu_residency(results)
        if values_only:
            results = [
                None
                if row is None
                else [
                    EvaluationResult(value=r.value, gradient=[], metadata=r.metadata)
                    for r in row
                ]
                for row in results
            ]
        return results

    def _annotate_gpu_residency(self, results) -> None:
        """Attach the resident H2D transfer cost of this run to the metadata.

        Run 1 ships every input slot of every instance; later runs re-send
        only the variable slots (the series that changed), which is the
        device-residency saving :meth:`repro.gpusim.TimingModel.predict_resident`
        models for whole schedules.
        """
        from ..gpusim.timing import TimingModel

        rows = [row for row in results if row is not None]
        if not rows:
            return
        fused = self._evaluator.fused
        limbs = rows[0][0].metadata.get("precision_limbs", 2)
        model = TimingModel(device=self._evaluator.device, precision=limbs)
        evaluated = len(rows)
        input_series = fused.input_slot_count * evaluated
        update_series = fused.variable_slot_count * evaluated
        n_series = input_series if self._runs == 1 else update_series
        transfer_ms = model.transfer_ms(n_series, fused.degree)
        for row in rows:
            for result in row:
                result.metadata["resident_transfer"] = {
                    "run": self._runs,
                    "series": n_series,
                    "h2d_ms": transfer_ms,
                }

    # ------------------------------------------------------------------ #
    # rebinding (path tracking: next local system, same structure)
    # ------------------------------------------------------------------ #
    def rebind(self, evaluator) -> "EvalContext":
        """Re-target the context at a structurally identical evaluator.

        The resident tensor and compiled program survive; the new system's
        constant/coefficient rows are rewritten in place on the next update.
        If the new system needs a wider ring than the tensor carries (or an
        unsupported one), the tensor is dropped and the next update packs —
        or falls back — afresh.
        """
        if evaluator is self._evaluator and self._instance_evaluators is None:
            return self
        if evaluator._structure_key != self._evaluator._structure_key:
            raise StagingError(
                "EvalContext.rebind needs a structurally identical system"
            )
        self._instance_evaluators = None
        self._retarget(evaluator, [evaluator])
        if _TELEMETRY.enabled:
            _TELEMETRY.count("context.rebinds")
        return self

    def rebind_fleet(self, evaluators) -> "EvalContext":
        """Re-target every batch instance at its *own* local system.

        ``evaluators`` carries one structurally identical evaluator per
        batch instance — the shape of a many-path scheduler where each path
        sits at its own parameter value, so each instance's local system has
        its own constant/coefficient series.  The resident tensor and the
        compiled program survive (the structure is shared); each instance's
        system rows are rewritten in place on the next update, grouped so
        instances that share one evaluator object (paths at the same
        parameter value) cost one write per series for the whole group.
        """
        evaluators = list(evaluators)
        if len(evaluators) != self._batch:
            raise StagingError(
                f"rebind_fleet needs one evaluator per batch instance "
                f"({self._batch}), got {len(evaluators)}"
            )
        key = self._evaluator._structure_key
        for evaluator in evaluators:
            if evaluator._structure_key != key:
                raise StagingError(
                    "EvalContext.rebind_fleet needs structurally identical systems"
                )
        self._instance_evaluators = evaluators
        self._retarget(evaluators[0], evaluators)
        if _TELEMETRY.enabled:
            _TELEMETRY.count("context.rebinds")
        return self

    def _retarget(self, evaluator, ring_sources) -> None:
        """Shared rebind plumbing: mode, ring compatibility, dirty flags."""
        self._evaluator = evaluator
        self._delegate_to = None if evaluator.mode == "vectorized" else evaluator.mode
        if self._delegate_to is None and self._tensor is not None:
            joined = self._ring
            for source in {id(s): s for s in ring_sources}.values():
                system_ring = source._ring_of_system()
                if system_ring is None:
                    joined = None
                    break
                joined = join_rings(system_ring, joined)
            if joined != self._ring:
                self._tensor = None
                self._program = None
                self._ring = None
            else:
                self._system_dirty = True
        self._zs = None
