"""Tensorized execution backend: whole-layer NumPy sweeps over fused schedules.

The staged executors of :mod:`repro.core.system` restore the paper's launch
*width* — one fused layer carries the jobs of every equation and every batch
instance — but still execute that width as a Python-level loop over
:class:`repro.series.PowerSeries` objects, one job at a time.  This module
turns the width into actual SIMD work, the host-side analogue of "one kernel
launch per layer" with the paper's structure-of-arrays data layout:

* :class:`SlotTensor` packs the fused slot array of a whole batch into one
  contiguous limb tensor of shape ``(limbs, total_slots x batch, degree+1)``
  — row ``b * total_slots + s`` holds the coefficients of slot ``s`` of
  instance ``b``, one NumPy plane per limb — with gather/scatter back to
  :class:`repro.series.PowerSeries` coefficients (floats or
  :class:`repro.md.MultiDouble`);
* :func:`compile_tensor_program` compiles a
  :class:`repro.core.FusedSystemSchedule` once per structure into a
  :class:`TensorProgram`: per fused layer, the job tuples are transposed
  into NumPy index arrays (inputs, outputs, scale factors), so nothing is
  interpreted per job at execution time;
* :meth:`TensorProgram.run` executes each fused layer as a handful of
  whole-layer NumPy calls: a batched truncated convolution
  (:func:`convolve_rows`, the many-triples generalisation of
  :func:`repro.series.convolve_vectorized`), one vectorised scale pass, and
  one renormalised addition per tree level — all built on
  :func:`repro.md.veft.vec_two_prod` / :func:`repro.md.vrenorm.vec_renormalize`
  through :mod:`repro.md.vecops`.  A convolution layer whose products fit
  a budget of elements forms them all with one multiple-double multiply; a
  larger one multiplies pass by pass over row blocks of that budget, so its
  temporaries stay in cache.  Either way the layer costs a few row
  operations, not a few per job.

The backend is registered as the fifth execution mode (``"vectorized"``) of
:class:`repro.core.SystemEvaluator`.  It covers every ring the vectorised
multiple-double stack supports — plain doubles, :class:`MultiDouble` of any
limb count, Python complexes and :class:`repro.md.ComplexMD`.  Complex data
lives in a :class:`ComplexSlotTensor` holding *paired* real and imaginary
limb planes (the split layout of :class:`repro.md.ComplexMDArray`), and the
complex layer sweeps decompose into real sweeps through
:mod:`repro.md.cvecops` in the exact operation order of the scalar
:class:`repro.md.ComplexMD` — so the PHCpack-style unit-circle workloads of
the paper run on the fast path bit-compatibly with the staged oracle.
Evaluators fall back to the staged path only for exact fractions, which keep
their oracle role.  The kernel drivers (sweeps, convolutions, norms) run with
NumPy's floating-point warnings off (:func:`quiet_fp`), as silent on an
infinity or a NaN as the scalar operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from ..md.complexmd import ComplexMD
from ..md.cvecops import cmd_add_rows, cmd_mul_rows, cmd_scale_rows
from ..md.multidouble import MultiDouble
from ..md.vecops import md_add_rows, md_mul_rows, md_scale_rows
from ..series.series import PowerSeries
from .system import FusedSystemSchedule

__all__ = [
    "SlotTensor",
    "ComplexSlotTensor",
    "CommonFactorPlan",
    "TensorLayer",
    "TensorProgram",
    "adopt_buffer",
    "collapse_limbs",
    "compile_common_factor_plan",
    "compile_tensor_program",
    "convolve_rows",
    "convolve_rows_complex",
    "infer_ring",
    "instance_norms",
    "join_rings",
    "make_tensor",
    "pack_exact",
    "promote_planes",
    "quiet_fp",
    "ring_planes",
    "RowSeries",
    "scalar_ring",
    "tensor_nbytes",
    "unpack_scalars",
    "zero_tensor",
]

#: Coefficient types the backend packs losslessly into limb planes.
_REAL_SCALARS = (int, float, np.floating, np.integer)
#: Plain complex scalars (one limb per plane).
_COMPLEX_SCALARS = (complex, np.complexfloating)


# --------------------------------------------------------------------- #
# ring inference
# --------------------------------------------------------------------- #
def infer_ring(series_iter: Iterable[PowerSeries]) -> tuple[str, int] | None:
    """Detect the coefficient ring of a collection of series.

    Returns a ``(kind, limbs)`` pair, where ``kind`` is one of the four
    corners of the ring lattice the backend packs losslessly —

    * ``"float"`` — real scalars only (one limb);
    * ``"md"`` — some :class:`repro.md.MultiDouble` (``limbs`` is the
      largest precision seen; plain doubles promote exactly);
    * ``"complex"`` — some plain complex, no multiple doubles;
    * ``"cmd"`` — some :class:`repro.md.ComplexMD` (or complexes mixed with
      multiple doubles)

    — and ``None`` for any ring the tensor backend cannot carry (exact
    fractions); the caller then falls back to the staged object path.
    """
    kind = "float"
    limbs = 1
    for series in series_iter:
        for c in series.coefficients:
            if isinstance(c, MultiDouble):
                kind = _join_kinds(kind, "md")
                limbs = max(limbs, c.precision.limbs)
            elif isinstance(c, ComplexMD):
                kind = "cmd"
                limbs = max(limbs, c.precision.limbs)
            elif isinstance(c, _COMPLEX_SCALARS):
                kind = _join_kinds(kind, "complex")
            elif isinstance(c, (int, np.integer)):
                # Exact integers ride along only while a double carries them
                # exactly; beyond 53 bits the staged object path keeps them
                # exact and the tensor would not.
                if not _int_fits_double(c):
                    return None
            elif not isinstance(c, _REAL_SCALARS):
                return None
    return kind, limbs


def _int_fits_double(value) -> bool:
    """True when an exact integer survives the round trip through a double."""
    try:
        return float(value) == value
    except OverflowError:
        return False


def _join_kinds(a: str, b: str) -> str:
    """Least upper bound of two ring kinds (float < md, float < complex < cmd)."""
    kinds = {a, b}
    is_complex = bool(kinds & {"complex", "cmd"})
    is_md = bool(kinds & {"md", "cmd"})
    if is_complex:
        return "cmd" if is_md else "complex"
    return "md" if is_md else "float"


def join_rings(a: tuple[str, int], b: tuple[str, int]) -> tuple[str, int]:
    """The smallest ring that carries both operand rings losslessly.

    Plain doubles/complexes promote into multiple-double planes by zero
    extension and real values into complex tensors with a zero imaginary
    plane, so the join never rounds anything.
    """
    return _join_kinds(a[0], b[0]), max(a[1], b[1])


# --------------------------------------------------------------------- #
# limb decomposition helpers (shared by the real and complex tensors)
# --------------------------------------------------------------------- #
def _limb_tuple(value, limbs: int) -> tuple[float, ...]:
    """A real scalar or :class:`MultiDouble` as exactly ``limbs`` doubles.

    Values with fewer limbs are zero-extended (exact), values with more are
    renormalised down — the same promotion rule :meth:`SlotTensor.pack`
    applies.  Exact integers are refused when a double cannot carry them
    (the evaluator routes such rings to the staged fallback via
    :func:`infer_ring` before any packing; this raise is the backstop for
    direct callers).
    """
    if isinstance(value, MultiDouble):
        parts = value.limbs
        if len(parts) > limbs:
            parts = value.to_precision(limbs).limbs
        return parts + (0.0,) * (limbs - len(parts))
    if isinstance(value, (int, np.integer)) and not _int_fits_double(value):
        raise TypeError(
            f"integer {value!r} is not exactly representable as a double limb"
        )
    if isinstance(value, _REAL_SCALARS):
        return (float(value),) + (0.0,) * (limbs - 1)
    raise TypeError(
        f"cannot represent {type(value).__name__} as real multiple-double limbs"
    )


def _complex_parts(value):
    """Split one coefficient into (real, imag) components.

    Real scalars and :class:`MultiDouble` values get an exact zero imaginary
    part; anything outside the supported lattice raises ``TypeError``.
    """
    if isinstance(value, ComplexMD):
        return value.real, value.imag
    if isinstance(value, _COMPLEX_SCALARS):
        return float(value.real), float(value.imag)
    if isinstance(value, (MultiDouble,) + _REAL_SCALARS):
        return value, 0.0
    raise TypeError(
        f"cannot pack {type(value).__name__} coefficients into a ComplexSlotTensor"
    )


def _series_block(series: PowerSeries, limbs: int) -> np.ndarray:
    """One real series as a ``(limbs, degree+1)`` limb block."""
    return np.asarray(
        [_limb_tuple(c, limbs) for c in series.coefficients], dtype=np.float64
    ).T


# --------------------------------------------------------------------- #
# shared-buffer residence (process sharding)
# --------------------------------------------------------------------- #
def tensor_nbytes(kind: str, limbs: int, rows: int, width: int) -> int:
    """Bytes one packed slot tensor of the given ring and shape occupies.

    This is how the sharded fleet runner sizes a
    :class:`multiprocessing.shared_memory` segment *before* any worker has
    packed anything: the shape follows from the fused layout (``rows =
    batch x total_slots``, ``width = degree + 1``) and the ring from
    :func:`infer_ring`, so the parent can allocate and the worker adopt with
    :meth:`SlotTensor.from_buffer` / :meth:`ComplexSlotTensor.from_buffer` —
    complex rings carry two limb-plane blocks (real, then imaginary).
    """
    planes = 2 if kind in ("complex", "cmd") else 1
    return planes * limbs * rows * width * 8


def adopt_buffer(buffer, spec: dict) -> "SlotTensor | ComplexSlotTensor":
    """Adopt a packed tensor living in ``buffer`` as a zero-copy view.

    ``spec`` is the dict :meth:`SlotTensor.export_buffer` /
    :meth:`ComplexSlotTensor.export_buffer` returned — ``ring``, ``limbs``,
    ``rows`` and ``width`` — so a worker process (or the parent, reading a
    worker's live tensor) reconstructs the exact tensor without copying or
    repacking a single limb.
    """
    cls = ComplexSlotTensor if spec["ring"] in ("complex", "cmd") else SlotTensor
    return cls.from_buffer(
        buffer,
        limbs=spec["limbs"],
        rows=spec["rows"],
        width=spec["width"],
        ring=spec["ring"],
    )


# --------------------------------------------------------------------- #
# the packed slot tensor
# --------------------------------------------------------------------- #
class SlotTensor:
    """The fused slot array of a whole batch as one limb tensor.

    ``data[i, r, k]`` is limb ``i`` of coefficient ``k`` of slot row ``r``;
    with batch stride ``total_slots``, row ``b * total_slots + s`` is slot
    ``s`` of instance ``b`` — the same flat layout the staged sweep uses,
    transposed into the paper's one-array-per-limb memory shape.
    """

    __slots__ = ("data", "ring")

    #: Real tensor: one set of limb planes (see :class:`ComplexSlotTensor`).
    is_complex = False

    def __init__(self, data: np.ndarray, ring: str = "md"):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 3:
            raise ValueError(
                f"SlotTensor expects a (limbs, rows, degree+1) array, got shape {data.shape}"
            )
        if ring not in ("float", "md"):
            raise ValueError(f"unknown ring {ring!r}; choose 'float' or 'md'")
        self.data = data
        self.ring = ring

    # ------------------------------------------------------------------ #
    @property
    def limbs(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        """Coefficients per series row (``degree + 1``)."""
        return self.data.shape[2]

    @property
    def degree(self) -> int:
        return self.width - 1

    @property
    def planes(self) -> tuple[np.ndarray]:
        """The limb-plane blocks, one per component (just ``data`` here)."""
        return (self.data,)

    def copy(self) -> "SlotTensor":
        return SlotTensor(self.data.copy(), self.ring)

    # ------------------------------------------------------------------ #
    # shared-buffer residence
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Bytes the limb planes occupy (what :meth:`export_buffer` needs)."""
        return self.data.nbytes

    def buffer_spec(self) -> dict:
        """The adoption recipe of this tensor (see :func:`adopt_buffer`)."""
        return {
            "ring": self.ring,
            "limbs": self.limbs,
            "rows": self.rows,
            "width": self.width,
        }

    def export_buffer(self, buffer) -> dict:
        """Move the limb planes into ``buffer`` and return the adoption spec.

        ``buffer`` is any writable buffer (typically the ``buf`` of a
        :class:`multiprocessing.shared_memory.SharedMemory` segment) of at
        least :attr:`nbytes` bytes.  One ``memcpy`` — not a repack: the
        packed representation crosses the process boundary bit for bit, and
        :meth:`from_buffer` on the other side is a zero-copy view.
        """
        out = np.ndarray(self.data.shape, dtype=np.float64, buffer=buffer)
        np.copyto(out, self.data)
        return self.buffer_spec()

    @classmethod
    def from_buffer(
        cls, buffer, limbs: int, rows: int, width: int, ring: str = "md"
    ) -> "SlotTensor":
        """Adopt a packed tensor from a (shared) buffer, zero copy.

        The returned tensor's ``data`` is a view into ``buffer``: in-place
        updates (:meth:`write_series`, :meth:`zero_rows`, program sweeps) are
        visible to every process holding the same segment, which is what
        makes a sharded fleet's residency *shared* instead of per-process.
        """
        data = np.ndarray((limbs, rows, width), dtype=np.float64, buffer=buffer)
        return cls(data, ring)

    # ------------------------------------------------------------------ #
    # gather: series -> tensor rows
    # ------------------------------------------------------------------ #
    @classmethod
    def pack(
        cls, slots: Sequence[PowerSeries], limbs: int, ring: str = "md"
    ) -> "SlotTensor":
        """Pack a flat slot array of series into one limb tensor.

        Every coefficient must be a real scalar or a :class:`MultiDouble`;
        values with fewer limbs than the tensor are zero-extended (exact),
        values with more limbs are renormalised down.
        """
        if not slots:
            raise ValueError("cannot pack an empty slot array")
        width = slots[0].degree + 1
        for r, series in enumerate(slots):
            if series.degree + 1 != width:
                raise ValueError(
                    f"slot {r} has degree {series.degree}, expected {width - 1}"
                )
        data = cls._pack_uniform(slots, limbs, width, ring)
        if data is None:
            data = np.zeros((limbs, len(slots), width), dtype=np.float64)
            for r, series in enumerate(slots):
                for k, c in enumerate(series.coefficients):
                    if isinstance(c, MultiDouble):
                        parts = c.limbs
                        if len(parts) > limbs:
                            parts = c.to_precision(limbs).limbs
                        data[: len(parts), r, k] = parts
                    else:
                        # _limb_tuple rejects anything a double limb cannot
                        # carry exactly (fractions, oversized exact ints).
                        data[0, r, k] = _limb_tuple(c, 1)[0]
        return cls(data, ring)

    @staticmethod
    def _pack_uniform(slots, limbs: int, width: int, ring: str) -> np.ndarray | None:
        """Fast path: every coefficient shares one representation.

        Slot arrays of one precision pack through a single nested
        comprehension + transpose instead of a per-coefficient Python loop;
        odd inputs (mismatched limb counts, unsupported coefficients) return
        ``None`` and take the general loop.  The dispatch follows the
        declared ``ring``, never a sampled coefficient, and the md path
        zero-extends real scalars explicitly (exact) rather than let
        ``MultiDouble.__float__`` silently round limbs away — a float-ring
        system evaluated at md inputs (a supported mix) stays on the fast
        path instead of failing over.
        """
        tail = (0.0,) * (limbs - 1)

        def limb_row(c):
            if isinstance(c, MultiDouble):
                return c.limbs
            if isinstance(c, (int, np.integer)) and not _int_fits_double(c):
                raise TypeError(type(c).__name__)
            if isinstance(c, _REAL_SCALARS):
                return (float(c),) + tail
            # Fractions etc. would survive float() only by rounding; punt to
            # the general loop, which raises the proper TypeError.
            raise TypeError(type(c).__name__)

        try:
            if ring == "md":
                nested = [
                    [limb_row(c) for c in s.coefficients] for s in slots
                ]
                block = np.asarray(nested, dtype=np.float64)  # (rows, width, k)
                if block.shape != (len(slots), width, limbs):
                    return None
                return np.ascontiguousarray(block.transpose(2, 0, 1))
            rows = [s.coefficients for s in slots]
            if any(
                not isinstance(c, _REAL_SCALARS)
                or (isinstance(c, (int, np.integer)) and not _int_fits_double(c))
                for row in rows
                for c in row
            ):
                # np.asarray would lossily coerce anything with __float__
                # (Fraction, multi-limb MultiDouble, 54-bit ints); punt
                # instead.
                raise TypeError("non-exact coefficient in float-ring pack")
            block = np.asarray(rows, dtype=np.float64)  # (rows, width)
            if block.shape != (len(slots), width):
                return None
            data = np.zeros((limbs, len(slots), width), dtype=np.float64)
            data[0] = block
            return data
        except (AttributeError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------ #
    # scatter: tensor rows -> series
    # ------------------------------------------------------------------ #
    def zero_series(self) -> PowerSeries:
        """A zero series in this tensor's coefficient ring."""
        if self.ring == "float":
            return PowerSeries([0.0] * self.width)
        zero = MultiDouble.zero(self.limbs)
        return PowerSeries([zero] * self.width)

    def series_at(self, row: int) -> PowerSeries:
        """Scatter one tensor row back into a :class:`PowerSeries`."""
        if self.ring == "float":
            return PowerSeries([float(v) for v in self.data[0, row, :]])
        block = self.data[:, row, :]
        return PowerSeries(
            [
                MultiDouble(tuple(block[:, k]), self.limbs)
                for k in range(self.width)
            ]
        )

    def to_slots(self) -> list[PowerSeries]:
        """Scatter the whole tensor back into a flat slot array of series."""
        return [self.series_at(r) for r in range(self.rows)]

    # ------------------------------------------------------------------ #
    # resident updates (gather/scatter without repacking)
    # ------------------------------------------------------------------ #
    def write_series(self, rows: np.ndarray | Sequence[int], series: PowerSeries) -> None:
        """Write one series into every listed row, in place.

        This is the residency primitive: a resident evaluation context
        updates only the input rows that changed instead of repacking the
        whole slot array, so repeated Newton sweeps pay one
        :meth:`pack` total.
        """
        self.data[:, rows, :] = _series_block(series, self.limbs)[:, None, :]

    def zero_rows(self, rows: np.ndarray | Sequence[int]) -> None:
        """Reset the listed rows to exact zero (the product region between runs)."""
        self.data[:, rows, :] = 0.0


# --------------------------------------------------------------------- #
# the complex packed slot tensor
# --------------------------------------------------------------------- #
class ComplexSlotTensor:
    """The fused slot array of a whole batch as *paired* limb tensors.

    The complex analogue of :class:`SlotTensor`: real and imaginary parts
    live in two separate ``(limbs, rows, degree+1)`` limb tensors — the
    split storage of :class:`repro.md.ComplexMDArray`, which is also the
    paper's coalesced complex memory layout — with the same row convention
    (row ``b * total_slots + s`` is slot ``s`` of instance ``b``).

    ``ring`` is ``"cmd"`` (complex multiple doubles, scattered back to
    :class:`repro.md.ComplexMD`) or ``"complex"`` (one limb per plane,
    scattered back to plain Python complexes).
    """

    __slots__ = ("real", "imag", "ring")

    is_complex = True

    def __init__(self, real: np.ndarray, imag: np.ndarray, ring: str = "cmd"):
        real = np.ascontiguousarray(real, dtype=np.float64)
        imag = np.ascontiguousarray(imag, dtype=np.float64)
        if real.ndim != 3 or real.shape != imag.shape:
            raise ValueError(
                "ComplexSlotTensor expects two (limbs, rows, degree+1) arrays of "
                f"one shape, got {real.shape} and {imag.shape}"
            )
        if ring not in ("complex", "cmd"):
            raise ValueError(f"unknown ring {ring!r}; choose 'complex' or 'cmd'")
        self.real = real
        self.imag = imag
        self.ring = ring

    # ------------------------------------------------------------------ #
    @property
    def limbs(self) -> int:
        return self.real.shape[0]

    @property
    def rows(self) -> int:
        return self.real.shape[1]

    @property
    def width(self) -> int:
        """Coefficients per series row (``degree + 1``)."""
        return self.real.shape[2]

    @property
    def degree(self) -> int:
        return self.width - 1

    @property
    def planes(self) -> tuple[np.ndarray, np.ndarray]:
        """The limb-plane blocks, one per component: ``(real, imag)``."""
        return (self.real, self.imag)

    def copy(self) -> "ComplexSlotTensor":
        return ComplexSlotTensor(self.real.copy(), self.imag.copy(), self.ring)

    # ------------------------------------------------------------------ #
    # shared-buffer residence
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Bytes both limb-plane blocks occupy (real block, then imaginary)."""
        return self.real.nbytes + self.imag.nbytes

    def buffer_spec(self) -> dict:
        """The adoption recipe of this tensor (see :func:`adopt_buffer`)."""
        return {
            "ring": self.ring,
            "limbs": self.limbs,
            "rows": self.rows,
            "width": self.width,
        }

    def export_buffer(self, buffer) -> dict:
        """Move both limb-plane blocks into ``buffer``; return the spec.

        The layout is the real block followed by the imaginary block, the
        contract :meth:`from_buffer` adopts — one ``memcpy`` per plane, no
        repacking across the process boundary.
        """
        shape = self.real.shape
        real = np.ndarray(shape, dtype=np.float64, buffer=buffer)
        imag = np.ndarray(shape, dtype=np.float64, buffer=buffer, offset=self.real.nbytes)
        np.copyto(real, self.real)
        np.copyto(imag, self.imag)
        return self.buffer_spec()

    @classmethod
    def from_buffer(
        cls, buffer, limbs: int, rows: int, width: int, ring: str = "cmd"
    ) -> "ComplexSlotTensor":
        """Adopt paired limb planes from a (shared) buffer, zero copy."""
        shape = (limbs, rows, width)
        offset = limbs * rows * width * 8
        real = np.ndarray(shape, dtype=np.float64, buffer=buffer)
        imag = np.ndarray(shape, dtype=np.float64, buffer=buffer, offset=offset)
        return cls(real, imag, ring)

    # ------------------------------------------------------------------ #
    # gather: series -> tensor rows
    # ------------------------------------------------------------------ #
    @classmethod
    def pack(
        cls, slots: Sequence[PowerSeries], limbs: int, ring: str = "cmd"
    ) -> "ComplexSlotTensor":
        """Pack a flat slot array of series into paired limb tensors.

        Coefficients may be :class:`repro.md.ComplexMD`, plain complexes,
        real scalars or :class:`MultiDouble` values (real data gets an exact
        zero imaginary plane); limb promotion follows the
        :meth:`SlotTensor.pack` rules, applied per plane.
        """
        if not slots:
            raise ValueError("cannot pack an empty slot array")
        width = slots[0].degree + 1
        for r, series in enumerate(slots):
            if series.degree + 1 != width:
                raise ValueError(
                    f"slot {r} has degree {series.degree}, expected {width - 1}"
                )
        planes = cls._pack_uniform(slots, limbs, width)
        if planes is not None:
            real, imag = planes
        else:
            real = np.zeros((limbs, len(slots), width), dtype=np.float64)
            imag = np.zeros((limbs, len(slots), width), dtype=np.float64)
            for r, series in enumerate(slots):
                for k, c in enumerate(series.coefficients):
                    re, im = _complex_parts(c)
                    real[:, r, k] = _limb_tuple(re, limbs)
                    imag[:, r, k] = _limb_tuple(im, limbs)
        return cls(real, imag, ring)

    @staticmethod
    def _pack_uniform(slots, limbs: int, width: int):
        """Fast path: one nested comprehension per plane instead of a
        per-coefficient loop (see :meth:`SlotTensor._pack_uniform`)."""
        try:
            pairs = [
                [
                    tuple(_limb_tuple(part, limbs) for part in _complex_parts(c))
                    for c in s.coefficients
                ]
                for s in slots
            ]
        except (AttributeError, TypeError, ValueError):
            return None
        block = np.asarray(pairs, dtype=np.float64)  # (rows, width, 2, limbs)
        if block.shape != (len(slots), width, 2, limbs):
            return None
        block = block.transpose(2, 3, 0, 1)  # (2, limbs, rows, width)
        return np.ascontiguousarray(block[0]), np.ascontiguousarray(block[1])

    # ------------------------------------------------------------------ #
    # scatter: tensor rows -> series
    # ------------------------------------------------------------------ #
    def zero_series(self) -> PowerSeries:
        """A zero series in this tensor's coefficient ring."""
        if self.ring == "complex":
            return PowerSeries([0j] * self.width)
        zero = ComplexMD(MultiDouble.zero(self.limbs), MultiDouble.zero(self.limbs))
        return PowerSeries([zero] * self.width)

    def series_at(self, row: int) -> PowerSeries:
        """Scatter one tensor row back into a :class:`PowerSeries`."""
        if self.ring == "complex":
            return PowerSeries(
                [
                    complex(self.real[0, row, k], self.imag[0, row, k])
                    for k in range(self.width)
                ]
            )
        re = self.real[:, row, :]
        im = self.imag[:, row, :]
        return PowerSeries(
            [
                ComplexMD(
                    MultiDouble(tuple(re[:, k]), self.limbs),
                    MultiDouble(tuple(im[:, k]), self.limbs),
                )
                for k in range(self.width)
            ]
        )

    def to_slots(self) -> list[PowerSeries]:
        """Scatter the whole tensor back into a flat slot array of series."""
        return [self.series_at(r) for r in range(self.rows)]

    # ------------------------------------------------------------------ #
    # resident updates (gather/scatter without repacking)
    # ------------------------------------------------------------------ #
    def write_series(self, rows: np.ndarray | Sequence[int], series: PowerSeries) -> None:
        """Write one series into every listed row of both planes, in place."""
        parts = [_complex_parts(c) for c in series.coefficients]
        real = np.asarray(
            [_limb_tuple(re, self.limbs) for re, _ in parts], dtype=np.float64
        ).T
        imag = np.asarray(
            [_limb_tuple(im, self.limbs) for _, im in parts], dtype=np.float64
        ).T
        self.real[:, rows, :] = real[:, None, :]
        self.imag[:, rows, :] = imag[:, None, :]

    def zero_rows(self, rows: np.ndarray | Sequence[int]) -> None:
        """Reset the listed rows to exact zero in both planes."""
        self.real[:, rows, :] = 0.0
        self.imag[:, rows, :] = 0.0


def make_tensor(
    slots: Sequence[PowerSeries], kind: str, limbs: int
) -> "SlotTensor | ComplexSlotTensor":
    """Pack a slot array into the tensor variant matching a ring ``kind``.

    ``kind`` is one of the lattice corners :func:`infer_ring` reports:
    ``"float"``/``"md"`` produce a :class:`SlotTensor`, ``"complex"``/
    ``"cmd"`` a :class:`ComplexSlotTensor`.
    """
    if kind in ("complex", "cmd"):
        return ComplexSlotTensor.pack(slots, limbs=limbs, ring=kind)
    return SlotTensor.pack(slots, limbs=limbs, ring=kind)


def zero_tensor(
    kind: str, limbs: int, rows: int, width: int
) -> "SlotTensor | ComplexSlotTensor":
    """An all-zero tensor of the class :func:`make_tensor` picks for ``kind``."""
    shape = (limbs, rows, width)
    if kind in ("complex", "cmd"):
        return ComplexSlotTensor(np.zeros(shape), np.zeros(shape), kind)
    return SlotTensor(np.zeros(shape), kind)


def scalar_ring(value) -> tuple[str, int] | None:
    """The ring of which ``value`` is a scalar as it is, without promotion.

    ``("md", k)`` for a ``k``-limb :class:`MultiDouble`, ``("cmd", k)`` for a
    :class:`ComplexMD`, ``("float", 1)`` and ``("complex", 1)`` for Python
    floats and complexes, and ``None`` for anything else (ints, NumPy
    scalars, fractions) — unlike :func:`infer_ring`, which reports the ring
    a value promotes into.
    """
    kind = type(value)
    if kind is MultiDouble:
        return "md", value.precision.limbs
    if kind is ComplexMD:
        return "cmd", value.precision.limbs
    if kind is float:
        return "float", 1
    if kind is complex:
        return "complex", 1
    return None


def promote_planes(
    planes: Sequence[np.ndarray], limbs: int, target: tuple[str, int]
) -> tuple[np.ndarray, ...]:
    """Limb planes of ``limbs`` limbs, widened exactly into the ``target`` ring.

    Extra limbs are exact zeros and real planes gain an exact zero imaginary
    plane: the promotion :func:`make_tensor` applies to every coefficient.
    """
    kind, target_limbs = target
    planes = tuple(planes)
    if target_limbs > limbs:
        planes = tuple(
            np.concatenate([p, np.zeros((target_limbs - limbs,) + p.shape[1:])])
            for p in planes
        )
    if kind in ("complex", "cmd") and len(planes) == 1:
        planes = (planes[0], np.zeros_like(planes[0]))
    return planes


def pack_exact(
    series: Sequence[PowerSeries], kind: str, limbs: int
) -> tuple[np.ndarray, ...] | None:
    """Limb planes of series whose coefficients all *are* the ring's scalars.

    Returns one ``(limbs, len(series), degree+1)`` block per component — a
    1-tuple for real rings, ``(real, imag)`` for complex ones — when every
    coefficient is exactly the scalar type of ``kind`` at ``limbs`` limbs: a
    :class:`MultiDouble` of that precision (``"md"``), a :class:`ComplexMD`
    with both parts at it (``"cmd"``), a Python ``float`` (``"float"``) or
    ``complex`` (``"complex"``).  Anything else — promoted scalars, other
    limb counts, fractions — returns ``None``, so the caller knows that
    scalar arithmetic on these series would have run in a narrower ring
    than the tensor's.  One nested comprehension packs the whole list.
    """
    rows = [s.coefficients for s in series]
    try:
        if kind == "md":
            block = np.asarray([[c.limbs for c in row] for row in rows], dtype=np.float64)
            if block.ndim != 3 or block.shape[2] != limbs:
                return None
            return (np.ascontiguousarray(block.transpose(2, 0, 1)),)
        if kind == "cmd":
            block = np.asarray(
                [[(c.real.limbs, c.imag.limbs) for c in row] for row in rows],
                dtype=np.float64,
            )
            if block.ndim != 4 or block.shape[2:] != (2, limbs):
                return None
            block = block.transpose(2, 3, 0, 1)  # (2, limbs, rows, width)
            return np.ascontiguousarray(block[0]), np.ascontiguousarray(block[1])
        scalar = float if kind == "float" else complex
        if limbs != 1 or set(map(type, chain.from_iterable(rows))) != {scalar}:
            return None
        block = np.asarray(rows, dtype=scalar)[None]
        if kind == "float":
            return (block,)
        return np.ascontiguousarray(block.real), np.ascontiguousarray(block.imag)
    except (AttributeError, TypeError, ValueError):
        return None


def ring_planes(planes: Sequence[np.ndarray], ring: tuple[str, int]) -> tuple:
    """The part of wider limb planes that holds scalars of ``ring``.

    A narrower ring widens into a tensor ring exactly
    (:func:`promote_planes`): its limbs lead, and a real ring fills only the
    first plane.  Returns those leading limbs of those planes (views).
    """
    count = 2 if ring[0] in ("complex", "cmd") else 1
    return tuple(plane[: ring[1]] for plane in planes[:count])


def unpack_scalars(planes: Sequence[np.ndarray], ring: tuple[str, int]) -> list:
    """The ring scalars whose limbs ``planes`` hold, limbs as they are.

    ``planes`` holds ``(limbs, count)`` limb blocks in the layout of a
    tensor whose ring carries ``ring``: only the first ``ring[1]`` limbs and,
    for real rings, the first plane are read.  Unlike
    :meth:`ComplexSlotTensor.series_at`, a :class:`ComplexMD` is paired from
    its parts without the constructor's renormalisation, because the rows
    hold the limbs of scalars that exist already (the resident Newton state
    of :class:`repro.core.EvalContext`).
    """
    kind, limbs = ring
    if kind == "float":
        return planes[0][0].tolist()
    if kind == "complex":
        return [complex(re, im) for re, im in zip(planes[0][0].tolist(), planes[1][0].tolist())]
    real = [MultiDouble(parts, limbs) for parts in planes[0][:limbs].T.tolist()]
    if kind == "md":
        return real
    imag = [MultiDouble(parts, limbs) for parts in planes[1][:limbs].T.tolist()]
    return [ComplexMD.from_parts(re, im) for re, im in zip(real, imag)]


#: The storage of :attr:`PowerSeries.coefficients` (a ``__slots__`` member).
_COEFFICIENTS = PowerSeries.__dict__["coefficients"]


class RowSeries(PowerSeries):
    """A :class:`PowerSeries` whose coefficients stay limb rows until read.

    ``planes`` holds ``(limbs, degree+1)`` blocks of a series of ``ring``
    scalars (see :func:`unpack_scalars`); the first access to
    :attr:`coefficients` — which every series operation makes — turns them
    into ring scalars once.  Refined Newton vectors come back this way, so a
    caller that never reads a solution never pays for building its scalars.
    """

    __slots__ = ("_rows",)

    def __init__(self, planes: Sequence[np.ndarray], ring: tuple[str, int]):
        self._rows = (planes, ring)

    @property
    def coefficients(self) -> list:
        if self._rows is not None:
            planes, ring = self._rows
            self._rows = None
            _COEFFICIENTS.__set__(self, unpack_scalars(planes, ring))
        return _COEFFICIENTS.__get__(self, RowSeries)

    @coefficients.setter
    def coefficients(self, value) -> None:
        self._rows = None
        _COEFFICIENTS.__set__(self, value)

    def __reduce__(self):
        return PowerSeries, (self.coefficients,)


# --------------------------------------------------------------------- #
# the batched convolution kernel
# --------------------------------------------------------------------- #
def quiet_fp(driver):
    """Run a row-kernel driver with NumPy's floating-point warnings off.

    The scalar operators turn an infinity or a NaN into NaNs silently, and so
    do the drivers: a diverged lane must not fail the lanes that share its
    rows by way of a warning filter.  ``np.errstate`` is context-local, so
    every thread that runs a driver sets its own state, once per call.
    """

    @wraps(driver)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return driver(*args, **kwargs)

    return quiet


def collapse_limbs(planes: np.ndarray) -> np.ndarray:
    """Collapse a stack of limb planes to plain doubles, the scalar way.

    ``planes`` has the limb axis leading; the result drops it.  The sum runs
    from the *least* significant limb upward starting at ``0.0``, exactly
    like :meth:`repro.md.MultiDouble.to_float`, so magnitude comparisons on
    collapsed values (pivot selection, residual norms) agree with the scalar
    code path bit for bit.
    """
    total = np.zeros(planes.shape[1:], dtype=np.float64)
    for plane in planes[::-1]:
        total += plane
    return total


@quiet_fp
def instance_norms(planes) -> np.ndarray:
    """Largest coefficient magnitude per instance of packed series vectors.

    ``planes`` is a ``(limbs, instances, n, degree+1)`` limb tensor, or a
    ``(real, imag)`` pair of them.  Limbs collapse the scalar way
    (:func:`collapse_limbs`), and complex moduli come from ``np.hypot``, which
    matches Python's ``abs(complex)`` bit for bit where ``np.abs`` on
    complex128 can round one ulp differently.  So each entry equals
    :func:`repro.homotopy.residual_norm` of that instance's unpacked series:
    NaN when any coefficient is NaN, and otherwise inf when one is infinite.
    """
    if isinstance(planes, tuple):
        magnitudes = np.hypot(collapse_limbs(planes[0]), collapse_limbs(planes[1]))
    else:
        magnitudes = np.abs(collapse_limbs(planes))
    return magnitudes.max(axis=(1, 2))


#: Elements (rows x products) one stacked multiply of :func:`convolve_rows`
#: may span: 16,384 doubles, 128 KiB per limb array.  A layer whose whole
#: product triangle fits forms every product in one multiply; a larger layer
#: multiplies pass by pass over row blocks whose passes fit, so the
#: temporaries of every row operation stay in cache.
_CONVOLUTION_BUDGET = 16_384


@lru_cache(maxsize=64)
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The operand columns of every product of a width-``n`` convolution.

    Pass ``j`` multiplies column ``j`` of ``x`` into columns ``0 .. n-j-1``
    of ``y``.  The passes lie one after another: ``left`` and ``right`` hold
    the ``x`` and ``y`` column of each product (read-only, since every
    caller shares them), and pass ``j`` spans ``starts[j]:starts[j + 1]``.
    """
    counts = np.arange(n, 0, -1)
    starts = tuple(accumulate(counts.tolist(), initial=0))
    left = np.repeat(np.arange(n), counts)
    right = np.arange(starts[-1]) - np.repeat(np.array(starts[:-1], dtype=np.int64), counts)
    left.flags.writeable = right.flags.writeable = False
    return left, right, starts


_ALL = slice(None)


def _limb_lists(planes, rows=_ALL, columns=_ALL) -> tuple[list, ...]:
    """The ``rows`` and ``columns`` of each ``(limbs, m, n)`` plane, as a
    list of limb arrays per plane."""
    return tuple(list(plane[:, rows, columns]) for plane in planes)


def _real_mul(a, b, limbs):
    return (md_mul_rows(a[0], b[0], limbs),)


def _real_add(a, b, limbs):
    return (md_add_rows(a[0], b[0], limbs),)


def _complex_mul(a, b, limbs):
    return cmd_mul_rows(a[0], a[1], b[0], b[1], limbs)


def _complex_add(a, b, limbs):
    return cmd_add_rows(a[0], a[1], b[0], b[1], limbs)


#: Plane count -> the ring's (multiply, add) on tuples of limb lists.
_RING_OPS = {1: (_real_mul, _real_add), 2: (_complex_mul, _complex_add)}


@quiet_fp
def _convolve(x: tuple, y: tuple, limbs: int) -> tuple[np.ndarray, ...]:
    """The convolution driver over tuples of ``(limbs, m, n)`` limb planes.

    One plane is a real ring, two are the (real, imaginary) planes of a
    complex one.  A layer whose ``m n (n+1) / 2`` products fit
    :data:`_CONVOLUTION_BUDGET` forms them all in one multiply; a larger one
    multiplies pass by pass, over blocks of ``_CONVOLUTION_BUDGET // n``
    rows.  Either way every coefficient sums its products in increasing pass
    order, and every product is elementwise, so the blocking moves no bit.
    """
    mul, add = _RING_OPS[len(x)]
    m, n = x[0].shape[1:]
    out = tuple(np.zeros(plane.shape) for plane in x)
    if m * n * (n + 1) // 2 <= _CONVOLUTION_BUDGET:
        left, right, starts = _triangle(n)
        products = mul(_limb_lists(x, columns=left), _limb_lists(y, columns=right), limbs)
        for j in range(n):
            span = slice(starts[j], starts[j + 1])
            pass_j = tuple([p[:, span] for p in plane] for plane in products)
            _accumulate(out, j, pass_j, add, limbs)
        return out
    step = max(1, _CONVOLUTION_BUDGET // n)
    for start in range(0, m, step):
        rows = slice(start, start + step)
        block = tuple(plane[:, rows] for plane in out)
        for j in range(n):
            products = mul(
                _limb_lists(x, rows, slice(j, j + 1)),  # (rows, 1), broadcasts
                _limb_lists(y, rows, slice(0, n - j)),
                limbs,
            )
            _accumulate(block, j, products, add, limbs)
    return out


def _accumulate(out: tuple, j: int, products: tuple, add, limbs: int) -> None:
    """Add pass ``j``'s products into columns ``j ..`` of ``out``, in place."""
    summed = add(_limb_lists(out, columns=slice(j, None)), products, limbs)
    for plane, limb_list in zip(out, summed):
        for i in range(limbs):
            plane[i, :, j:] = limb_list[i]


def convolve_rows(x: np.ndarray, y: np.ndarray, limbs: int) -> np.ndarray:
    """Truncated convolution of many series pairs in one sweep.

    ``x`` and ``y`` are stacked limb tensors of shape ``(limbs, m, n)`` —
    ``m`` independent (x, y) operand pairs of ``n`` coefficients each, the
    gathered input rows of one fused convolution layer across all equations
    and batch instances.  The result has the same shape and holds the
    truncated products.

    This is :func:`repro.series.convolve_vectorized` generalised from one
    triple to a whole layer.  Pass ``j`` multiplies column ``j`` of every
    ``x`` row into the leading ``n - j`` columns of the matching ``y`` row
    and accumulates into the output tail, so each coefficient sums in
    increasing ``j``, the order of :func:`repro.series.convolve_direct`.  A
    layer of up to :data:`_CONVOLUTION_BUDGET` products makes one
    multiple-double multiply and ``n`` additions whatever its job count; a
    larger one makes ``n`` multiplies and ``n`` additions per block of
    ``_CONVOLUTION_BUDGET // n`` rows.
    """
    if x.shape != y.shape:
        raise ValueError(f"operand tensors must share shape, got {x.shape} and {y.shape}")
    return _convolve((x,), (y,), limbs)[0]


def convolve_rows_complex(
    xr: np.ndarray,
    xi: np.ndarray,
    yr: np.ndarray,
    yi: np.ndarray,
    limbs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated *complex* convolution of many series pairs in one sweep.

    The four operands are the real/imaginary limb tensors of ``m`` stacked
    (x, y) pairs, shaped ``(limbs, m, n)`` like :func:`convolve_rows`; the
    result is the pair of real/imaginary limb tensors of the truncated
    complex products.

    The driver of :func:`convolve_rows` runs with the complex row
    operations: :func:`repro.md.cvecops.cmd_mul_rows` (four real multiply
    sweeps, one subtraction, one addition) forms the products and one
    complex addition (two real sweeps) accumulates each pass — the
    per-coefficient operation order of the scalar :class:`repro.md.ComplexMD`
    convolution, so the two paths agree to the last limb of both planes.
    """
    if not (xr.shape == xi.shape == yr.shape == yi.shape):
        raise ValueError(
            "operand tensors must share one shape, got "
            f"{xr.shape}, {xi.shape}, {yr.shape} and {yi.shape}"
        )
    return _convolve((xr, xi), (yr, yi), limbs)


def _convolve_planes(
    x: Sequence[np.ndarray], y: Sequence[np.ndarray], limbs: int
) -> list[np.ndarray]:
    """:func:`convolve_rows` (one plane) or :func:`convolve_rows_complex`
    (two) over operands of any leading shape ``(limbs, ..., degree+1)``."""
    shape = x[0].shape
    flat = [np.reshape(a, (limbs, -1, shape[-1])) for a in (*x, *y)]
    products = _convolve(tuple(flat[: len(x)]), tuple(flat[len(x) :]), limbs)
    return [product.reshape(shape) for product in products]


# --------------------------------------------------------------------- #
# the common-factor plan (Section 3 powers as whole-batch convolutions)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CommonFactorPlan:
    """The adjusted coefficients of every non-multilinear monomial, as layers.

    Section 3 folds the common factor ``prod z_i^(e_i - 1)`` of a monomial
    into its coefficient.  The scalar oracle
    (:meth:`repro.circuits.Monomial.split_common_factor` on a
    :class:`repro.circuits.PowerTable`) computes it per input vector; this
    plan computes it for a whole batch in two kinds of whole-batch
    convolutions, built once per structure:

    * power levels — level ``p`` forms ``z_v^p = z_v^(p-1) * z_v`` for every
      variable ``v`` some monomial needs at power ``p`` or higher;
    * factor steps — step ``t`` multiplies the running coefficient of every
      monomial with more than ``t`` exponents above one by the power its
      ``t``-th such exponent needs, in the monomial's variable order.

    Power rows ``0 .. dimension-1`` hold ``z`` itself; each level appends
    its outputs after them.  The operands and their order are exactly those
    of the scalar oracle, and :func:`convolve_rows` (and the complex
    variant) matches :meth:`repro.series.PowerSeries.convolve` limb for
    limb.  So the adjusted coefficients are bit-identical to
    ``split_common_factor`` when every product runs in the ring the scalar
    code promotes it to: :meth:`powers` in the inputs' ring,
    :meth:`factors` in the ring of the coefficient times the power.
    :class:`repro.core.EvalContext` checks that before it batches.
    """

    dimension: int
    #: ``(equation, monomial)`` of every non-multilinear monomial.
    monomials: tuple[tuple[int, int], ...]
    #: Per-instance slot of each of those monomials' coefficient.
    coefficient_rows: np.ndarray
    #: Power rows in all: ``dimension`` plus one per level output.
    power_rows: int
    #: Per level: (power rows of ``z_v^(p-1)``, variables ``v``, output rows).
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    #: Per step: (positions in ``monomials``, power rows to multiply by).
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def launches(self) -> int:
        """Whole-batch convolution calls per update."""
        return len(self.levels) + len(self.steps)

    def powers(self, inputs: Sequence[np.ndarray], limbs: int) -> list[np.ndarray]:
        """Every power row of a batch of lanes, one block per plane.

        ``inputs`` holds each plane's ``(limbs, lanes, dimension, degree+1)``
        input series; the result is ``(limbs, lanes, power_rows, degree+1)``
        per plane, row ``v`` being ``z_v`` itself.
        """
        lanes, width = inputs[0].shape[1], inputs[0].shape[3]
        powers = []
        for z in inputs:
            block = np.empty((limbs, lanes, self.power_rows, width))
            block[:, :, : self.dimension] = z
            powers.append(block)
        for source, variables, out in self.levels:
            products = _convolve_planes(
                [block[:, :, source] for block in powers],
                [z[:, :, variables] for z in inputs],
                limbs,
            )
            for block, product in zip(powers, products):
                block[:, :, out] = product
        return powers

    def factors(
        self, powers: Sequence[np.ndarray], raw: Sequence[np.ndarray], limbs: int
    ) -> list[np.ndarray]:
        """Adjusted coefficients from :meth:`powers` and the raw coefficients.

        ``raw`` holds each plane's ``(limbs, lanes, monomials, degree+1)``
        unadjusted coefficients; the result has its shape.
        """
        adjusted = [np.array(plane, dtype=np.float64) for plane in raw]
        for members, power_rows in self.steps:
            products = _convolve_planes(
                [plane[:, :, members] for plane in adjusted],
                [block[:, :, power_rows] for block in powers],
                limbs,
            )
            for plane, product in zip(adjusted, products):
                plane[:, :, members] = product
        return adjusted


def compile_common_factor_plan(fused: FusedSystemSchedule) -> CommonFactorPlan | None:
    """The :class:`CommonFactorPlan` of a fused schedule (``None`` if multilinear).

    The exponents come from the scale jobs: a schedule carries one per
    exponent above one, monomial by monomial in variable order — the order
    ``split_common_factor`` multiplies the powers in.
    """
    monomials: list[tuple[int, int]] = []
    rows: list[int] = []
    factors: list[list[tuple[int, int]]] = []
    for equation, (offset, schedule) in enumerate(zip(fused.offsets, fused.schedules)):
        by_monomial: dict[int, list[tuple[int, int]]] = {}
        for job in schedule.scale_jobs:
            by_monomial.setdefault(job.monomial, []).append(
                (job.variable, int(job.factor) - 1)
            )
        for k, pairs in by_monomial.items():
            monomials.append((equation, k))
            rows.append(offset + schedule.layout.coefficient_slot(k))
            factors.append(pairs)
    if not monomials:
        return None
    top: dict[int, int] = {}
    for pairs in factors:
        for variable, power in pairs:
            top[variable] = max(top.get(variable, 1), power)
    row_of = {(v, 1): v for v in range(fused.dimension)}
    levels = []
    for power in range(2, max(top.values()) + 1):
        variables = [v for v in sorted(top) if top[v] >= power]
        source = [row_of[(v, power - 1)] for v in variables]
        for v in variables:
            row_of[(v, power)] = len(row_of)
        out = [row_of[(v, power)] for v in variables]
        levels.append(tuple(np.asarray(a, dtype=np.int64) for a in (source, variables, out)))
    steps = []
    for t in range(max(len(pairs) for pairs in factors)):
        members = [i for i, pairs in enumerate(factors) if len(pairs) > t]
        power_rows = [row_of[factors[i][t]] for i in members]
        steps.append(
            (np.asarray(members, dtype=np.int64), np.asarray(power_rows, dtype=np.int64))
        )
    return CommonFactorPlan(
        dimension=fused.dimension,
        monomials=tuple(monomials),
        coefficient_rows=np.asarray(rows, dtype=np.int64),
        power_rows=len(row_of),
        levels=tuple(levels),
        steps=tuple(steps),
    )


# --------------------------------------------------------------------- #
# the layer compiler
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TensorLayer:
    """One fused layer, transposed from job tuples into index arrays.

    ``kind`` is ``"convolution"`` (``in1 * in2 -> out``), ``"scale"``
    (``out *= factors``) or ``"addition"`` (``out += in1``); the arrays hold
    per-instance slot indices, replicated across the batch at run time by
    adding the instance base offsets.
    """

    kind: str
    in1: np.ndarray | None
    in2: np.ndarray | None
    out: np.ndarray
    factors: np.ndarray | None = None

    @property
    def jobs(self) -> int:
        return int(self.out.size)


@dataclass(frozen=True)
class TensorProgram:
    """A compiled fused schedule: one :class:`TensorLayer` per wide launch.

    Compiling depends only on the polynomial structure, so programs are
    memoised in the :class:`repro.core.ScheduleCache` next to the fused
    schedule they were compiled from.
    """

    total_slots: int
    degree: int
    layers: tuple[TensorLayer, ...]
    #: The input update's common-factor plan (``None`` for multilinear systems).
    common_factor: CommonFactorPlan | None = None

    @property
    def launches(self) -> int:
        """Whole-layer NumPy launches per instance sweep."""
        return len(self.layers)

    @quiet_fp
    def run(
        self,
        tensor: "SlotTensor | ComplexSlotTensor",
        batch: int,
        active: np.ndarray | None = None,
    ) -> "SlotTensor | ComplexSlotTensor":
        """Execute every fused layer on the packed slot tensor, in place.

        Each layer gathers its operand rows (across all ``batch`` instances
        at once), applies one whole-layer vectorised multiple-double
        operation, and scatters the results back — the Python interpreter
        sees a handful of NumPy calls per layer, never a per-job loop.  The
        index arrays are ring-agnostic: a :class:`SlotTensor` runs the real
        sweeps, a :class:`ComplexSlotTensor` the complex ones (each complex
        sweep decomposing into a few real sweeps over the paired planes).

        ``active`` optionally restricts the sweep to a subset of instance
        indices: only their rows are gathered, computed and scattered —
        rows belonging to masked-out instances are untouched.  The row
        operations are elementwise per instance, so an active instance's
        results are bit-identical whether or not the others sweep alongside
        it; this is what lets the many-path scheduler keep a shrinking fleet
        resident in one packed tensor instead of repacking survivors.
        """
        if tensor.rows != batch * self.total_slots:
            raise ValueError(
                f"tensor has {tensor.rows} rows, expected "
                f"{batch} x {self.total_slots}"
            )
        if active is not None:
            active = np.asarray(active, dtype=np.int64)
            if active.size and (active.min() < 0 or active.max() >= batch):
                raise ValueError(
                    f"active instance indices must lie in [0, {batch}), got "
                    f"[{active.min()}, {active.max()}]"
                )
        if tensor.is_complex:
            return self._run_complex(tensor, batch, active)
        data = tensor.data
        limbs = tensor.limbs
        instances = np.arange(batch, dtype=np.int64) if active is None else active
        bases = (instances * self.total_slots)[:, None]
        for layer in self.layers:
            out_rows = (layer.out[None, :] + bases).reshape(-1)
            if layer.kind == "convolution":
                in1_rows = (layer.in1[None, :] + bases).reshape(-1)
                in2_rows = (layer.in2[None, :] + bases).reshape(-1)
                data[:, out_rows, :] = convolve_rows(
                    data[:, in1_rows, :], data[:, in2_rows, :], limbs
                )
            elif layer.kind == "scale":
                factors = np.tile(layer.factors, len(instances))[:, None]  # (m, 1)
                gathered = [data[i, out_rows, :] for i in range(limbs)]
                scaled = md_scale_rows(gathered, factors, limbs)
                for i in range(limbs):
                    data[i, out_rows, :] = scaled[i]
            else:  # addition
                in1_rows = (layer.in1[None, :] + bases).reshape(-1)
                sources = [data[i, in1_rows, :] for i in range(limbs)]
                targets = [data[i, out_rows, :] for i in range(limbs)]
                summed = md_add_rows(targets, sources, limbs)
                for i in range(limbs):
                    data[i, out_rows, :] = summed[i]
        return tensor

    def _run_complex(
        self, tensor: "ComplexSlotTensor", batch: int, active: np.ndarray | None = None
    ) -> "ComplexSlotTensor":
        """The complex layer sweeps: same index arrays, paired limb planes."""
        real = tensor.real
        imag = tensor.imag
        limbs = tensor.limbs
        instances = np.arange(batch, dtype=np.int64) if active is None else active
        bases = (instances * self.total_slots)[:, None]
        for layer in self.layers:
            out_rows = (layer.out[None, :] + bases).reshape(-1)
            if layer.kind == "convolution":
                in1_rows = (layer.in1[None, :] + bases).reshape(-1)
                in2_rows = (layer.in2[None, :] + bases).reshape(-1)
                out_r, out_i = convolve_rows_complex(
                    real[:, in1_rows, :],
                    imag[:, in1_rows, :],
                    real[:, in2_rows, :],
                    imag[:, in2_rows, :],
                    limbs,
                )
                real[:, out_rows, :] = out_r
                imag[:, out_rows, :] = out_i
            elif layer.kind == "scale":
                factors = np.tile(layer.factors, len(instances))[:, None]  # (m, 1)
                scaled_r, scaled_i = cmd_scale_rows(
                    [real[i, out_rows, :] for i in range(limbs)],
                    [imag[i, out_rows, :] for i in range(limbs)],
                    factors,
                    limbs,
                )
                for i in range(limbs):
                    real[i, out_rows, :] = scaled_r[i]
                    imag[i, out_rows, :] = scaled_i[i]
            else:  # addition
                in1_rows = (layer.in1[None, :] + bases).reshape(-1)
                summed_r, summed_i = cmd_add_rows(
                    [real[i, out_rows, :] for i in range(limbs)],
                    [imag[i, out_rows, :] for i in range(limbs)],
                    [real[i, in1_rows, :] for i in range(limbs)],
                    [imag[i, in1_rows, :] for i in range(limbs)],
                    limbs,
                )
                for i in range(limbs):
                    real[i, out_rows, :] = summed_r[i]
                    imag[i, out_rows, :] = summed_i[i]
        return tensor


def compile_tensor_program(fused: FusedSystemSchedule) -> TensorProgram:
    """Transpose every fused layer's job list into NumPy index arrays.

    Jobs within one fused layer are independent by construction (that is
    what makes them one launch), so their outputs are distinct rows and the
    gather-compute-scatter execution of :meth:`TensorProgram.run` cannot
    race with itself.
    """
    layers: list[TensorLayer] = []
    for layer in fused.convolution_layers:
        if not layer:
            continue
        layers.append(
            TensorLayer(
                kind="convolution",
                in1=np.asarray([job.input1 for job in layer], dtype=np.int64),
                in2=np.asarray([job.input2 for job in layer], dtype=np.int64),
                out=np.asarray([job.output for job in layer], dtype=np.int64),
            )
        )
    if fused.scale_jobs:
        layers.append(
            TensorLayer(
                kind="scale",
                in1=None,
                in2=None,
                out=np.asarray([job.slot for job in fused.scale_jobs], dtype=np.int64),
                factors=np.asarray(
                    [float(job.factor) for job in fused.scale_jobs], dtype=np.float64
                ),
            )
        )
    for layer in fused.addition_layers:
        if not layer:
            continue
        layers.append(
            TensorLayer(
                kind="addition",
                in1=np.asarray([job.source for job in layer], dtype=np.int64),
                in2=None,
                out=np.asarray([job.target for job in layer], dtype=np.int64),
            )
        )
    return TensorProgram(
        total_slots=fused.total_slots,
        degree=fused.degree,
        layers=tuple(layers),
        common_factor=compile_common_factor_plan(fused),
    )
