"""The seeded closed-form-versus-oracle gap map of bench/gapmap.py, run over
its whole grid: every oracle converges without a warning, every gap judged
against a suite's bound stays within it, and every gap past its bound, judged
or not, carries a regime flag of its closed form."""

from collections import Counter

import pytest

from conftest import load_gapmap
from pathgain import canyon, morphology

# the closed form behind each flag-checked gap of the map
FLAGGED_LAWS = {
    "canyon": (canyon, "los_gain_incoherent"),
    "outdoor_indoor": (morphology, "outdoor_indoor_canyon_gain"),
    "trees": (morphology, "sidewalk_guided_gain"),
}


@pytest.mark.filterwarnings("error")
def test_every_point_converges_within_its_bounds(monkeypatch):
    gapmap = load_gapmap()
    flags = {}  # gap name -> the flags of its closed form at the current point
    for name, (module, attr) in FLAGGED_LAWS.items():
        def recording(*args, _law=getattr(module, attr), _name=name):
            result = _law(*args)
            flags[_name] = tuple(result.flags)
            return result
        monkeypatch.setattr(module, attr, recording)
    points = gapmap.grid()
    assert len(points) == 183
    beyond, unflagged = [], []
    set_at, set_within = Counter(), Counter()
    for point in points:
        flags.clear()
        # evaluate raises on any warning and on any oracle that fails
        for gap in gapmap.evaluate(point):
            over = abs(gap.gap_db) > gap.bound_db
            if gap.judged and over:
                beyond.append(f"{point}: {gap.name} {gap.gap_db:.3f} dB")
            if gap.name not in FLAGGED_LAWS:
                continue
            if over and not flags[gap.name]:
                unflagged.append(f"{point}: {gap.name} {gap.gap_db:.3f} dB")
            for flag in flags[gap.name]:
                set_at[gap.name, flag] += 1
                set_within[gap.name, flag] += not over
    # how conservative each flag is: its false positives, the share of its
    # points within bound
    for (name, flag), count in sorted(set_at.items()):
        print(f"{name} {flag}: set at {count} points, false positives "
              f"{set_within[name, flag] / count:.0%}")
    assert not beyond
    assert not unflagged, (f"{len(unflagged)} gaps past their bound carry no "
                           "flag:\n" + "\n".join(unflagged))
