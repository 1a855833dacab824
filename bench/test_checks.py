"""Hand-worked cases for the benchmark's own checkers and span arithmetic.

Run with `python3 -m pytest bench`.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads
from checks import GT, LT


# -- tent-thread expander ------------------------------------------------------------


def test_letter_zero_takes_the_smaller_preimage():
    # 1/2 -> 1/4 (letter 0), then 1 - 1/8 (letter 1), then 1 - 7/16.
    assert checks.expand_thread((F(1, 2),), (0,), (1,), 3) == [F(1, 2), F(1, 4), F(7, 8), F(9, 16)]


def test_stem_coordinates_come_first():
    assert checks.expand_thread((F(1, 2), F(1, 4)), (), (0,), 2) == [F(1, 2), F(1, 4), F(1, 8)]


def test_one_has_a_single_preimage():
    with pytest.raises(ValueError):
        checks.expand_thread((F(1),), (1,), (0,), 1)


def test_equal_letters_one_flip_the_sign():
    # 1/4 < 3/4; then 7/8 > 5/8; then 9/16 < 11/16; ...
    xs = checks.expand_thread((F(1, 4),), (), (1,), 4)
    ys = checks.expand_thread((F(3, 4),), (), (1,), 4)
    assert checks.signs(xs, ys) == [LT, GT, LT, GT, LT]


def test_periodic_from_waits_one_doubled_period():
    assert checks.periodic_from((1, 3), (1, 2)) == (7, 4)


def test_late_flip():
    late = (((F(1, 4),), (0, 0, 0), (1,)), ((F(13, 16),), (1, 1, 1, 1), (0,)))
    steady = (((F(1, 4),), (), (0,)), ((F(3, 4),), (), (0,)))
    assert workloads.late_flip(late)
    assert not workloads.late_flip(steady)
    assert not workloads.late_flip(workloads.TentLimits.MIXED_PAIR)


# -- residue votes ---------------------------------------------------------------------


def test_eventual_period():
    assert checks.eventual_period([True, False] * 3, 0) == 2
    assert checks.eventual_period([False, False, True, True, True, True], 2) == 1


def test_epset_bits():
    assert checks.epset_bits((True,), (False, True), 5) == [True, False, True, False, True]


EVENS = [n % 2 == 0 for n in range(20)]
THIRDS = [n % 3 == 0 for n in range(40)]


def test_vote_uses_the_first_modulus_the_period_divides():
    assert checks.residue_vote(EVENS, 0, (1, 2), (0, 0)) == (True, 2, False)
    assert checks.residue_vote(EVENS, 0, (1, 2), (0, 1)) == (False, 2, False)


def test_vote_extends_a_tower_without_such_modulus():
    # No modulus of 1 | 2 | 4 is a multiple of 3: vote on 3 mod lcm(4, 3) = 12.
    assert checks.residue_vote(THIRDS, 0, (1, 2, 4), (0, 1, 3)) == (True, 12, True)
    assert checks.residue_vote(EVENS, 0, (1,), (0,)) == (True, 2, True)


def test_vote_ignores_the_prefix():
    bits = [False] * 5 + [True] * 10
    assert checks.residue_vote(bits, 5, (1, 2), (0, 1)) == (True, 1, False)


# -- link rule -------------------------------------------------------------------------


def test_link_relation():
    assert checks.link_relation([1, 2], [2, 3]) == "both"
    assert checks.link_relation([1, 1], [2, 2]) == "le_only"
    assert checks.link_relation([3, 4], [1, 2]) == "ge_only"


# -- walk-position keys ------------------------------------------------------------------


def direction(space, variant, x, y):
    return checks.expected_direction(
        checks.walk_key(space, variant, *x), checks.walk_key(space, variant, *y)
    )


@pytest.mark.parametrize(
    "space, variant, x, y, expected",
    [
        ("arc", "standard", ("segment", F(1, 4)), ("segment", F(3, 4)), "le"),
        ("arc", "reversed", ("segment", F(1, 4)), ("segment", F(3, 4)), "ge"),
        # S1: the oscillation first, then the bar from the top (D, E) or bottom.
        ("s1", "D", ("wave", F(4)), ("bar", F(0)), "le"),
        ("s1", "E", ("wave", F(4)), ("bar", F(0)), "ge"),
        ("s1", "D", ("bar", F(1)), ("bar", F(-1)), "le"),
        ("s1", "D'", ("bar", F(1)), ("bar", F(-1)), "ge"),
        ("s1", "E'", ("wave", F(0)), ("wave", F(4)), "ge"),
        # S2: the oscillation, then the outer arc from its inner top corner.
        ("s2", "standard", ("ell", F(0)), ("wave", F(0)), "ge"),
        ("s2", "reversed", ("ell", F(0)), ("wave", F(0)), "le"),
        # S3 with prefix 01: tooth 1 bottom first, tooth 2 top first.
        ("s3", "01", ("tooth_1", F(0)), ("tooth_1", F(1)), "le"),
        ("s3", "01", ("tooth_2", F(0)), ("tooth_2", F(1, 2)), "ge"),
        ("s3", "01", ("tooth_1", F(1)), ("gap_1", F(0)), "le"),
        ("s3", "01", ("gap_1", F(1, 4)), ("gap_1", F(-1, 4)), "le"),
        ("s3", "01", ("gap_1", F(0)), ("tooth_2", F(0)), "le"),
        # T, variant D: spiral, bar, wave.
        ("t", "D", ("spiral", F(1)), ("spiral", F(1, 2)), "le"),
        ("t", "D", ("spiral", F(1, 2)), ("bar", F(-1)), "le"),
        ("t", "D", ("bar", F(-1)), ("bar", F(1)), "le"),
        ("t", "D", ("bar", F(1)), ("wave", F(8)), "le"),
        ("t", "D", ("wave", F(8)), ("wave", F(0)), "le"),
        # T, variant E: bar, wave, spiral.
        ("t", "E", ("bar", F(1)), ("bar", F(-1)), "le"),
        ("t", "E", ("bar", F(-1)), ("wave", F(8)), "le"),
        ("t", "E", ("wave", F(0)), ("spiral", F(1, 2)), "le"),
        ("t", "E", ("spiral", F(1, 2)), ("spiral", F(1)), "le"),
        ("t", "E", ("bar", F(0)), ("bar", F(0)), "eq"),
    ],
)
def test_walk_key_order(space, variant, x, y, expected):
    assert direction(space, variant, x, y) == expected


# -- spans --------------------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = lambda: tracer.call("catalog.certificate", lambda: None, (), {})
    tracer.call("chains.compare", inner, (), {})
    snap = tracer.snapshot()
    assert snap["chains.compare.calls"] == 1
    assert snap["chains.compare.s"] == 10.0
    assert snap["chains.compare.self_s"] == 8.0
    assert snap["catalog.certificate.self_s"] == 2.0
    assert snap["chains.spot_check_s"] == 8.0


def test_nested_span_of_the_same_name_counts_once_inclusive():
    ticks = iter([0.0, 1.0, 2.0, 4.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = lambda: tracer.call("foundations.epset", lambda: None, (), {})
    tracer.call("foundations.epset", inner, (), {})
    snap = tracer.snapshot()
    assert snap["foundations.epset.calls"] == 2
    assert snap["foundations.epset.s"] == 4.0
    assert snap["foundations.epset.self_s"] == 4.0


# -- harness ---------------------------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 99) == 99
    assert run.percentile(values, 50) == 50
    assert run.percentile([7], 99) == 7


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_rescale_averages_the_bracketing_calibrations(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 0.04)
    current, scale = run.rescale(0.02)
    assert current == 0.04
    assert scale == pytest.approx(run.CALIBRATION_REFERENCE_S / 0.03)
