"""The user-facing evaluator of one polynomial: the paper's algorithm end to end.

:class:`PolynomialEvaluator` takes a :class:`repro.circuits.Polynomial`,
stages its jobs once (:func:`repro.core.schedule_for_polynomial`) and then
evaluates the polynomial and its gradient at any input vector of power
series.  It is a one-equation :class:`repro.core.SystemEvaluator`, so it runs
the schedule through the same code in the same modes
(:data:`repro.core.system.MODES`): the sequential ``reference`` oracle, the
host-side ``staged`` jobs (any coefficient ring, exact fractions included),
the functional ``gpu`` simulator with its per-device timing model (real
doubles and multidoubles only) and the tensorized ``vectorized`` backend.

Every mode returns one :class:`repro.circuits.EvaluationResult`; the test
suite checks that they agree with the exact reference to working precision.
"""

from __future__ import annotations

from typing import Sequence

from ..circuits.polynomial import Polynomial
from ..circuits.reference import EvaluationResult
from ..series.series import PowerSeries
from .schedule import JobSchedule
from .system import ScheduleCache, SystemEvaluator

__all__ = ["PolynomialEvaluator"]


class PolynomialEvaluator(SystemEvaluator):
    """Evaluate one polynomial and its gradient at power series.

    Parameters
    ----------
    polynomial:
        The polynomial (any coefficient ring the selected mode supports).
    mode:
        One of :data:`repro.core.system.MODES`.
    device:
        A :class:`repro.gpusim.DeviceSpec` (or preset name such as
        ``"V100"``) used by the ``gpu`` mode's timing model.

    Each evaluator stages its polynomial into a private
    :class:`ScheduleCache`, so building one always pays the staging, as a
    standalone per-polynomial evaluator does; systems that should share
    staging across constructions use :class:`SystemEvaluator` with the
    process-wide cache.
    """

    def __init__(self, polynomial: Polynomial, mode: str = "staged", device=None):
        super().__init__([polynomial], mode=mode, device=device, cache=ScheduleCache())
        self.polynomial = polynomial
        self.schedule: JobSchedule = self.fused.schedules[0]

    def evaluate(self, z: Sequence[PowerSeries]) -> EvaluationResult:
        """Evaluate ``p(z)`` and the full gradient at the series vector ``z``."""
        return self.evaluate_batch([z])[0][0]

    __call__ = evaluate

    def job_summary(self) -> dict:
        """Schedule statistics (job counts, launches, theoretical steps)."""
        return self.schedule.summary()
