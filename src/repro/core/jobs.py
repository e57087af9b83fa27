"""Job descriptions for the two stages of the accelerated algorithm.

The paper encodes every unit of GPU work as a small tuple of indices into the
flat data array ``A``:

* a **convolution job** is a triplet ``(t1, t2, t3)`` — multiply the series
  starting at ``t1`` with the series starting at ``t2`` and write the product
  to ``t3`` (Section 5, first kernel);
* an **addition job** is a pair ``(t1, t2)`` — update the series at ``t2``
  with the series at ``t1``, i.e. ``A[t2] += A[t1]`` (second kernel);
* a **scale job** (our extension for monomials with exponents larger than
  one) multiplies the series at one location by a plain integer constant —
  the factor ``e_i`` that the common-factor trick leaves to apply to the
  derivative with respect to ``x_i``.

Jobs are expressed in units of *series slots* (series number within the data
array); the flat double offsets of the paper are ``slot * (d + 1)`` and are
provided by :meth:`ConvolutionJob.offsets` / :meth:`AdditionJob.offsets` so
tests can check the exact triplets of Section 5 (e.g. ``(d+1, 4d+4, 10d+10)``
for the first convolution of the example polynomial).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ConvolutionJob",
    "AdditionJob",
    "ScaleJob",
    "apply_convolution",
    "apply_scale",
    "apply_addition",
]


@dataclass(frozen=True)
class ConvolutionJob:
    """One truncated-series product ``A[output] := A[input1] * A[input2]``.

    Attributes
    ----------
    input1, input2, output:
        Series-slot indices in the data array.
    layer:
        1-based layer index; all jobs of a layer are independent and execute
        in one kernel launch.
    monomial:
        Index of the monomial this job belongs to (0-based), for diagnostics.
    kind:
        ``"forward"``, ``"backward"``, ``"backward*coefficient"`` or
        ``"cross"`` — which product of Section 3 this job computes.
    """

    input1: int
    input2: int
    output: int
    layer: int
    monomial: int
    kind: str

    def offsets(self, degree: int) -> tuple[int, int, int]:
        """The paper's triplet of flat offsets for truncation degree ``degree``."""
        stride = degree + 1
        return (self.input1 * stride, self.input2 * stride, self.output * stride)

    def reads(self) -> tuple[int, int]:
        """Slots read by this job."""
        return (self.input1, self.input2)

    def writes(self) -> int:
        """Slot written by this job."""
        return self.output


@dataclass(frozen=True)
class AdditionJob:
    """One series update ``A[target] += A[source]``.

    ``layer`` is the 1-based level of the summation tree; jobs of one level
    across all output groups form one kernel launch.  ``group`` names the
    output the job contributes to (``"value"`` or ``"d/dx<v>"``).
    """

    source: int
    target: int
    layer: int
    group: str

    def offsets(self, degree: int) -> tuple[int, int]:
        """The paper's pair of flat offsets for truncation degree ``degree``."""
        stride = degree + 1
        return (self.source * stride, self.target * stride)

    def reads(self) -> tuple[int, ...]:
        return (self.source, self.target)

    def writes(self) -> int:
        return self.target


def apply_convolution(slots, base: int, job: "ConvolutionJob") -> None:
    """Run one convolution job on a host-side slot array (shifted by ``base``).

    The single definition of what a job *does* to the slot array, which the
    staged sweep of :class:`repro.core.SystemEvaluator` runs job by job.
    """
    slots[base + job.output] = slots[base + job.input1].convolve(slots[base + job.input2])


def apply_scale(slots, base: int, job: "ScaleJob") -> None:
    """Run one scale job in place (the factor is promoted into the ring)."""
    series = slots[base + job.slot]
    factor = series.coefficients[0] * 0 + job.factor
    slots[base + job.slot] = series.scale(factor)


def apply_addition(slots, base: int, job: "AdditionJob") -> None:
    """Run one addition job: ``slots[target] += slots[source]``."""
    slots[base + job.target] = slots[base + job.target] + slots[base + job.source]


@dataclass(frozen=True)
class ScaleJob:
    """Multiply the series at ``slot`` by the integer ``factor``.

    Needed only for monomials with exponents larger than one: the
    common-factor rewriting leaves the integer exponent to be applied to the
    corresponding partial derivative.  The paper's test polynomials are
    multilinear, so their schedules contain no scale jobs.
    """

    slot: int
    factor: int
    monomial: int
    variable: int

    def offsets(self, degree: int) -> tuple[int]:
        return (self.slot * (degree + 1),)

    def writes(self) -> int:
        return self.slot
