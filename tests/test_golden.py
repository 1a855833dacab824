"""Golden reports: the JSON and text the CLI prints must stay byte-identical.

Each case runs one command in process through ``cli.main`` and compares
its standard output with ``tests/golden/<name>.json``.  The cases are
the README examples plus a few comparisons that exercise reversed
numberings and the deeper catalog spaces.  The text cases run with
``--format text`` and compare with ``tests/golden/<name>.txt``; between
them they print nested dicts and lists, ``None`` and ``True``, rationals
and objects expanded through ``as_dict``.  To record the files again
after a deliberate report change, run ``python tests/test_golden.py``
from the repository root with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from chainorder.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

CASES = {
    "catalog-list": ["catalog", "list"],
    "compare-arc": ["compare", "--space", "arc", "--x", "1/4", "--y", "3/4"],
    "compare-arc-reversed": [
        "compare", "--space", "arc", "--variant", "reversed", "--x", "1/4", "--y", "3/4",
    ],
    "compare-s1-E": [
        "compare", "--space", "s1", "--variant", "E",
        "--x", "bar:1/2", "--y", "bar:-1/2", "--depth", "8",
    ],
    "compare-s1-Dprime": [
        "compare", "--space", "s1", "--variant", "D'",
        "--x", "bar:1/2", "--y", "bar:-1/2", "--depth", "8",
    ],
    "compare-s2-reversed": [
        "compare", "--space", "s2", "--variant", "reversed",
        "--x", "ell:3", "--y", "wave:4", "--depth", "10",
    ],
    "compare-s2-standard": [
        "compare", "--space", "s2", "--x", "ell:3", "--y", "wave:4", "--depth", "10",
    ],
    "compare-s3-011": [
        "compare", "--space", "s3", "--bits", "011",
        "--x", "tooth_2:0", "--y", "tooth_2:1/2", "--depth", "3",
    ],
    "compare-t-D": [
        "compare", "--space", "t", "--variant", "D",
        "--x", "spiral:1", "--y", "bar:0", "--depth", "8",
    ],
    "compare-t-E": [
        "compare", "--space", "t", "--variant", "E",
        "--x", "spiral:1", "--y", "bar:0", "--depth", "8",
    ],
    "orders-count-s1": ["orders-count", "--space", "s1"],
    "orders-count-s3": ["orders-count", "--space", "s3", "--depth", "3"],
    "knaster-witness-even": [
        "knaster-witness", "--set", "even", "--depth", "16", "--u1", "r2=0", "--u2", "r2=1",
    ],
    "orientation-decompose": ["orientation", "decompose", "--n", "3", "--prefix", "101"],
    "orientation-reach": ["orientation", "reach", "--from", "0", "--to", "11", "--parity", "odd"],
    "suite": ["suite"],
}

TEXT_CASES = {
    "catalog-list": CASES["catalog-list"],
    "compare-s1-D": [
        "compare", "--space", "s1", "--x", "bar:1/2", "--y", "bar:-1/2", "--depth", "8",
    ],
    "knaster-witness-even": CASES["knaster-witness-even"],
}


def render(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("CHAINORDER_REPORT_DIR", raising=False)
    code, out = render(CASES[name])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("CHAINORDER_REPORT_DIR", raising=False)
    code, out = render(["--format", "text", *TEXT_CASES[name]])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop("CHAINORDER_REPORT_DIR", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    recordings = [(f"{name}.json", argv) for name, argv in CASES.items()]
    recordings += [
        (f"{name}.txt", ["--format", "text", *argv]) for name, argv in TEXT_CASES.items()
    ]
    for filename, argv in recordings:
        code, out = render(argv)
        if code != 0:
            raise SystemExit(f"{filename}: exit code {code}")
        (GOLDEN_DIR / filename).write_text(out, encoding="utf-8")
