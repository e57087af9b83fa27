"""Kernel timing records, mirroring the paper's reporting format.

For each run the paper reports four numbers (all in milliseconds): the sum of
the elapsed times of all convolution kernels, the sum for all addition
kernels, their sum, and the wall clock time which additionally includes the
per-launch host overhead (index-vector transfers and launch latency).
:class:`TimingReport` carries exactly those four quantities plus the
individual launches for anyone who wants to drill down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["KernelLaunchTiming", "TimingReport"]


@dataclass(frozen=True)
class KernelLaunchTiming:
    """Predicted timing of one kernel launch."""

    stage: str          #: "convolution", "addition" or "scale"
    layer: int          #: 1-based layer/level index within its stage
    blocks: int         #: number of thread blocks (= jobs) launched
    waves: int          #: ceil(blocks / #SM)
    kernel_ms: float    #: time attributed to the kernel itself
    overhead_ms: float  #: host-side launch overhead (wall clock only)


@dataclass
class TimingReport:
    """Aggregate of all launches of one evaluation (paper's four rows)."""

    launches: list[KernelLaunchTiming] = field(default_factory=list)

    def add(self, launch: KernelLaunchTiming) -> None:
        self.launches.append(launch)

    # ------------------------------------------------------------------ #
    @property
    def convolution_ms(self) -> float:
        """Sum of all convolution kernel times (first row of Tables 3-7)."""
        return sum((launch.kernel_ms for launch in self.launches if launch.stage == "convolution"), 0.0)

    @property
    def addition_ms(self) -> float:
        """Sum of all addition kernel times (second row)."""
        return sum(
            (launch.kernel_ms for launch in self.launches if launch.stage in ("addition", "scale")), 0.0
        )

    @property
    def sum_ms(self) -> float:
        """Convolution + addition kernel times (third row)."""
        return self.convolution_ms + self.addition_ms

    @property
    def wall_clock_ms(self) -> float:
        """Kernel times plus launch overheads (fourth row)."""
        return self.sum_ms + sum((launch.overhead_ms for launch in self.launches), 0.0)

    @property
    def kernel_fraction(self) -> float:
        """Fraction of the wall clock spent inside kernels (Figure 4)."""
        wall = self.wall_clock_ms
        return self.sum_ms / wall if wall > 0 else 0.0

    @property
    def n_launches(self) -> int:
        return len(self.launches)

    def as_row(self) -> dict[str, float]:
        """The four reported numbers as a dictionary."""
        return {
            "convolution": self.convolution_ms,
            "addition": self.addition_ms,
            "sum": self.sum_ms,
            "wall clock": self.wall_clock_ms,
        }

    def __repr__(self) -> str:
        return (
            f"TimingReport(conv={self.convolution_ms:.2f}ms, add={self.addition_ms:.2f}ms, "
            f"wall={self.wall_clock_ms:.2f}ms, launches={self.n_launches})"
        )
