"""The eleven desk-scale acceptance experiments, one visible line each."""

from __future__ import annotations

from fractions import Fraction

import pytest

from chainorder import acceptance
from chainorder.catalog import arc_family


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion, capsys):
    report = criterion()
    status = "PASS" if report["pass"] else "FAIL"
    line = (
        f"{status} criterion {report['criterion']:>2}: {report['name']}"
        f" ({report['elapsed_s']:.2f}s, limit {report['limit_s']}s)"
    )
    with capsys.disabled():
        print(line)
    assert report["pass"], report["detail"]
    assert report["elapsed_s"] < report["limit_s"], line


def test_run_all_covers_every_criterion():
    numbers = [rep["criterion"] for rep in acceptance.run_all()]
    assert numbers == list(range(1, 12))


def test_ranking_ignores_input_order():
    # At depth 5 the arc does not yet separate the first two points.
    points = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**6), Fraction(1, 2)]
    family = arc_family("standard")
    forward = acceptance._ranking(family, points, 5)
    assert acceptance._ranking(family, points[::-1], 5) == forward
    assert sorted(forward) == sorted(points)
    assert forward[-1] == Fraction(1, 2)
