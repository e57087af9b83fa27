"""Table 7 — p3 on the V100 for increasing degree and precision."""

from __future__ import annotations

import pytest

from repro.analysis import format_grid, table7_model
from repro.analysis.paperdata import TABLE7_P3_V100

from conftest import emit


def test_table7_report(benchmark):
    model = benchmark(table7_model)
    model_wall = {
        f"{limbs}d": {d: row["wall clock"] for d, row in degrees.items()}
        for limbs, degrees in model.items()
    }
    paper_wall = {
        f"{limbs}d": {d: row["wall clock"] for d, row in degrees.items()}
        for limbs, degrees in TABLE7_P3_V100.items()
    }
    text = (
        format_grid(paper_wall, "Table 7 (wall clock, ms) — paper", "precision", "degree")
        + "\n\n"
        + format_grid(model_wall, "Table 7 (wall clock, ms) — model", "precision", "degree")
    )
    emit("table7_p3_v100", text)
    # p3 has only two convolution layers but the most addition work; its
    # addition kernel times exceed p1's at every precision (Figure 3).
    from repro.analysis import table5_model

    p1 = table5_model()
    for limbs in (1, 10):
        assert model[limbs][152]["addition"] > p1[limbs][152]["addition"]
    # Deca-double wall clock follows the paper's growth; the relative gap is
    # largest at tiny degrees where p3's two huge launches are dominated by
    # per-block overheads the model treats only coarsely (README, "Paper
    # fidelity").
    for degree, row in TABLE7_P3_V100[10].items():
        assert 0.3 < model[10][degree]["wall clock"] / row["wall clock"] < 1.7
    assert model[10][152]["wall clock"] / TABLE7_P3_V100[10][152]["wall clock"] == pytest.approx(1.0, abs=0.25)
