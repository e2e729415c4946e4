"""The seeded closed-form-versus-oracle gap map of bench/gapmap.py, run over
its whole grid: every oracle converges without a warning, and every gap
judged against a suite's bound stays within it."""

import pytest

from conftest import load_gapmap


@pytest.mark.filterwarnings("error")
def test_every_point_converges_within_its_bounds():
    gapmap = load_gapmap()
    points = gapmap.grid()
    assert len(points) == 183
    beyond = []
    for point in points:
        # evaluate raises on any warning and on any oracle that fails
        for gap in gapmap.evaluate(point):
            if gap.judged and abs(gap.gap_db) > gap.bound_db:
                beyond.append(f"{point}: {gap.name} {gap.gap_db:.3f} dB")
    assert not beyond
