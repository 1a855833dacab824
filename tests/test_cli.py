"""End-to-end runs of the command-line entry point, in process, and one
in a subprocess whose stdout is closed."""

import io
import json
import os
import signal
import subprocess
import sys
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainorder
from chainorder import catalog, chains
from chainorder.chains import ChainLevel, chain_order_compare
from chainorder.cli import (
    _DEPTHS,
    _VARIANTS,
    ORIENTATION_BUDGET_LOG2,
    _build_parser,
    _decompose_log2_steps,
    _parse_args,
    _reach_log2_steps,
    _render,
    _suite_lines,
    main,
)
from chainorder.foundations import rational_str


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestCompare:
    def test_arc_bare_rationals(self, capsys):
        code, report = run_json(
            capsys, "compare", "--space", "arc", "--x", "1/4", "--y", "3/4"
        )
        assert code == 0
        assert report["schema"] == "chainorder-report/1"
        assert report["experiment"] == "compare"
        assert report["verdict"]["kind"] == "stabilized"
        assert report["verdict"]["direction"] == "le"
        assert report["trace"][0]["level"] == 1

    def test_sine_strand_points(self, capsys):
        code, report = run_json(
            capsys,
            "compare",
            "--space", "s1", "--variant", "E",
            "--x", "bar:1/2", "--y", "bar:-1/2",
            "--depth", "8",
        )
        assert code == 0
        assert report["verdict"]["direction"] == "ge"

    def test_an_arc_point_given_both_ways_is_equal_from_level_1(self, capsys):
        """A bare rational and the segment point at the same parameter are
        one point of the arc, on either variant and in either order."""
        for variant in ("standard", "reversed"):
            family = catalog.arc_family(variant)
            for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
                segment = catalog.CatalogPoint("segment", t)
                for x, y in ((t, segment), (segment, t)):
                    verdict = chain_order_compare(family, x, y, None, 20)
                    assert (verdict.kind, verdict.direction, verdict.threshold) == (
                        "stabilized", "eq", 1
                    )
        code, report = run_json(
            capsys, "compare", "--space", "arc", "--x", "1/2", "--y", "segment:1/2"
        )
        assert code == 0
        assert report["verdict"] == {
            "kind": "stabilized", "depth": 20, "direction": "eq", "threshold": 1
        }

    def test_negative_trace_depth_is_refused(self, capsys):
        code, out, err = run(
            capsys, "compare", "--space", "arc", "--x", "1/4", "--y", "3/4", "--trace-depth", "-2"
        )
        assert (code, out) == (2, "")
        assert err == "error: compare --trace-depth must be at least 0\n"

    def test_zero_trace_depth_gives_no_trace_entries(self, capsys):
        code, report = run_json(
            capsys, "compare", "--space", "arc", "--x", "1/4", "--y", "3/4", "--trace-depth", "0"
        )
        assert code == 0
        assert report["trace"] == []
        assert report["verdict"]["kind"] == "stabilized"

    def test_s3_needs_bits(self, capsys):
        code, out, err = run(
            capsys, "compare", "--space", "s3", "--x", "tooth_1:0", "--y", "tooth_1:1"
        )
        assert code == 2
        assert "needs --bits" in err

    def test_s3_with_bits(self, capsys):
        code, report = run_json(
            capsys,
            "compare",
            "--space", "s3", "--bits", "011",
            "--x", "tooth_2:0", "--y", "tooth_2:1/2",
            "--depth", "3",
        )
        assert code == 0
        assert report["verdict"]["threshold"] == 2

    @pytest.mark.parametrize("strand", ["tooth_01", "tooth_\u0661", "tooth_0"])
    def test_s3_strand_has_one_spelling(self, capsys, strand):
        # Each tooth has one name: no leading zero, no non-ASCII digit, no tooth 0.
        code, out, err = run(
            capsys,
            "compare", "--space", "s3", "--bits", "0110",
            "--x", f"{strand}:0", "--y", "tooth_1:0", "--depth", "4",
        )
        assert (code, out) == (2, "")
        assert f"unknown point: strand {strand!r}" in err

    def test_ultrafilter_flag_accepted(self, capsys):
        code, report = run_json(
            capsys,
            "compare",
            "--space", "s1", "--variant", "D",
            "--x", "wave:1", "--y", "wave:3",
            "--depth", "8", "--ultrafilter", "r2=0",
        )
        assert code == 0
        assert report["verdict"]["kind"] == "stabilized"

    def test_unknown_strand_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "compare", "--space", "s1", "--x", "rod:0", "--y", "bar:0"
        )
        assert code == 2
        assert "unknown point" in err

    def test_zero_denominator_is_usage_error(self, capsys):
        code, out, err = run(capsys, "compare", "--space", "arc", "--x", "1/0", "--y", "1/2")
        assert code == 2
        assert out == ""
        assert "zero denominator" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--space", "arc", "--x", "1e-5000", "--y", "1/2"],
            ["--space", "arc", "--x", "1/4", "--y", "1e10000000"],
            ["--space", "s1", "--variant", "D", "--x", "wave:1e-5000", "--y", "bar:0"],
            ["--space", "arc", "--x", "0." + "1" * 4300, "--y", "1/2"],
        ],
    )
    def test_decimals_too_long_to_print_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "compare", *argv)
        assert code == 2
        assert out == ""
        assert "is too long" in err and "4000 digits" in err

    @pytest.mark.parametrize(
        "x,value", [("2.5e-3", "1/400"), ("1e-3", "1/1000"), ("25E-2", "1/4")]
    )
    def test_decimal_exponents_still_parse(self, capsys, x, value):
        code, report = run_json(capsys, "compare", "--space", "arc", "--x", x, "--y", "1/2")
        assert code == 0
        assert report["inputs"]["x"] == value

    def test_spiral_points_up_to_the_circuit_limit(self, capsys):
        # T's compare limit bounds the circuit: 1/512 and 3/2048 lie on
        # circuit 10, the deepest accepted; 3/128 (circuit 6) is the deepest
        # point the benchmark workloads ask about.
        limit = _DEPTHS["compare", "t"][1]
        for v in (f"1/{2 ** (limit - 1)}", "3/2048", "3/128"):
            code, out, err = run(
                capsys, "compare", "--space", "t", "--variant", "D",
                "--x", f"spiral:{v}", "--y", "bar:0", "--depth", "2",
            )
            assert code in (0, 1) and err == ""

    @pytest.mark.parametrize("v,circuit", [("1/1024", 11), ("1/1048576", 21)])
    def test_spiral_points_past_the_circuit_limit_are_refused(self, capsys, v, circuit):
        code, out, err = run(
            capsys, "compare", "--space", "t", "--variant", "D",
            "--x", f"spiral:{v}", "--y", "bar:0", "--depth", "4",
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: compare point 'spiral:{v}' on spiral circuit {circuit} "
            f"is over the limit of {_DEPTHS['compare', 't'][1]} on t\n"
        )

    @pytest.mark.parametrize("w", ["1", "-1"])
    def test_open_gap_ends_are_refused(self, capsys, w):
        code, out, err = run(
            capsys, "compare", "--space", "s3", "--bits", "0110",
            "--x", f"gap_2:{w}", "--y", "tooth_1:1/2", "--depth", "4",
        )
        assert code == 2 and out == ""
        assert err == f"error: unknown point: parameter {w} outside strand 'gap_2' of s3\n"

    def test_bad_point_syntax(self, capsys):
        code, out, err = run(capsys, "compare", "--space", "s1", "--x", "1/2", "--y", "bar:0")
        assert code == 2
        assert "strand:param" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ("compare", "--space", "s2", "--x", "ell:1", "--y", "wave:4")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_timing_field_only_on_request(self, capsys):
        argv = ("compare", "--space", "arc", "--x", "0", "--y", "1")
        _, plain = run_json(capsys, *argv)
        _, timed = run_json(capsys, *argv, "--timing")
        assert "elapsed_s" not in plain
        assert "elapsed_s" in timed


class TestCatalogList:
    def test_lists_every_space(self, capsys):
        code, report = run_json(capsys, "catalog", "list")
        assert code == 0
        assert sorted(report["spaces"]) == ["arc", "s1", "s2", "s3", "t"]
        assert report["spaces"]["s1"]["variants"] == ["D", "D'", "E", "E'"]
        assert report["spaces"]["t"]["components"] == ["T1", "T2", "T3"]

    def test_text_format(self, capsys):
        code, out, err = run(capsys, "--format", "text", "catalog", "list")
        assert code == 0
        assert "experiment: catalog-list" in out


class TestOrdersCount:
    @pytest.mark.parametrize(
        "space,depth,expected",
        [("arc", "12", 2), ("s1", "8", 4), ("s2", "8", 2), ("s3", "3", 8), ("t", "6", 2)],
    )
    def test_expected_counts(self, capsys, space, depth, expected):
        code, report = run_json(
            capsys, "orders-count", "--space", space, "--depth", depth
        )
        assert code == 0
        assert report["distinct_orders"] == expected
        assert report["expected"] == expected

    @pytest.mark.parametrize("depth", ["1", "3", "6"])
    def test_arc_below_the_grid_mesh(self, capsys, depth):
        # No arc level up to depth 6 has mesh below half the grid gap 1/24.
        code, report = run_json(capsys, "orders-count", "--space", "arc", "--depth", depth)
        assert code == (0 if depth == "6" else 1)
        assert bool(report["detail"]["violations"]) == (depth != "6")
        # Only families whose grid pairs all stabilized count as orders.
        assert report["distinct_orders"] == (2 if depth == "6" else 0)


    @pytest.mark.parametrize("space", ["arc", "s1", "s2", "s3", "t"])
    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_below_one_is_refused(self, capsys, space, depth):
        code, out, err = run(capsys, "orders-count", "--space", space, "--depth", depth)
        assert (code, out) == (2, "")
        assert err == "error: orders-count --depth must be at least 1\n"

    @pytest.mark.parametrize("space", ["s3", "t"])
    def test_s3_and_t_answer_up_to_depth_6_by_default(self, capsys, space):
        code, out, err = run(capsys, "orders-count", "--space", space, "--depth", "6")
        assert (code, err) == (0, "")
        assert json.loads(out)["inputs"] == {"space": space, "depth": 6}
        assert run(capsys, "orders-count", "--space", space) == (code, out, err)

    @pytest.mark.parametrize("space", ["s3", "t"])
    @pytest.mark.parametrize("depth", ["7", "20"])
    def test_s3_and_t_refuse_depths_over_6(self, capsys, space, depth):
        code, out, err = run(capsys, "orders-count", "--space", space, "--depth", depth)
        assert (code, out) == (2, "")
        assert err == f"error: orders-count --depth {depth} is over the limit of 6 on {space}\n"

    def test_other_spaces_default_to_depth_20(self, capsys):
        code, report = run_json(capsys, "orders-count", "--space", "arc")
        assert report["inputs"] == {"space": "arc", "depth": 20}


class TestKnasterWitness:
    def test_evens_split(self, capsys):
        code, report = run_json(
            capsys,
            "knaster-witness",
            "--set", "even", "--depth", "12", "--u1", "r2=0", "--u2", "r2=1",
        )
        assert code == 0
        assert report["distinct"] is True
        directions = {report["verdict_u1"]["direction"], report["verdict_u2"]["direction"]}
        assert directions == {"le", "ge"}

    def test_residue_class_set(self, capsys):
        code, report = run_json(
            capsys,
            "knaster-witness",
            "--set", "mod:3,1", "--depth", "12", "--u1", "r3=1", "--u2", "r3=0",
        )
        assert code == 0
        assert report["distinct"] is True

    def test_wrong_tower_is_input_error(self, capsys):
        code, out, err = run(
            capsys,
            "knaster-witness",
            "--set", "even", "--depth", "12", "--u1", "r2=1", "--u2", "r2=0",
        )
        assert code == 2
        assert "u1 must decide" in err

    def test_unknown_set(self, capsys):
        code, out, err = run(
            capsys, "knaster-witness", "--set", "primes", "--u1", "r2=0", "--u2", "r2=1"
        )
        assert code == 2
        assert "unknown level set" in err

    # Each input is refused before any level is built, so none of these
    # costs more than parsing its arguments.
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--set", "even", "--depth", "100000"], "--depth 100000 is over"),
            (["--set", "even", "--depth", str(10**12)], f"--depth {10**12} is over"),
            (["--set", f"mod:{10**9},1"], f"modulus {10**9} is over"),
        ],
        ids=["depth-1e5", "depth-1e12", "modulus-1e9"],
    )
    def test_over_budget_is_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "knaster-witness", *argv, "--u1", "r2=0", "--u2", "r2=1")
        assert code == 2
        assert out == ""
        assert f"knaster-witness {message} the limit of 4096\n" in err

    def test_cofinite_sets_are_unknown(self, capsys):
        # Every residue tower decides a cofinite set in, so none can witness.
        code, out, err = run(
            capsys, "knaster-witness", "--set", "cofinite:5", "--u1", "r3=1", "--u2", "r3=2"
        )
        assert (code, out) == (2, "")
        assert "unknown level set 'cofinite:5'" in err


# S3 queries share these prefixes, so a query at S3's limit after the first
# reuses the memoized family.  The long one has room past the limit.
S3_POOL = ("011", "0110100110010110" * 4)

# One query per row of the depth table, for each row's default and limit.
ROW_ARGV = {
    ("compare", "arc"): ["--x", "1/4", "--y", "3/4"],
    ("compare", "s1"): ["--x", "bar:1/2", "--y", "bar:-1/2"],
    ("compare", "s2"): ["--x", "ell:1", "--y", "wave:4"],
    ("compare", "s3"): ["--bits", S3_POOL[1], "--x", "tooth_1:1/2", "--y", "gap_2:1/3"],
    ("compare", "t"): ["--x", "spiral:1", "--y", "bar:0"],
    ("orders-count", "arc"): [],
    ("orders-count", "s1"): [],
    ("orders-count", "s2"): [],
    ("orders-count", "s3"): [],
    ("orders-count", "t"): [],
    ("knaster-witness", None): ["--set", "even", "--u1", "r2=0", "--u2", "r2=1"],
}


def row_argv(command, space, depth=None):
    argv = [command] + (["--space", space] if space else []) + ROW_ARGV[command, space]
    return argv if depth is None else argv + ["--depth", str(depth)]


class TestDepthBudget:
    def test_every_row_has_a_query(self):
        assert ROW_ARGV.keys() == _DEPTHS.keys()
        assert all(1 <= default <= limit for default, limit in _DEPTHS.values())

    # Refused before any level is built.
    @pytest.mark.parametrize(
        "row",
        [("compare", "s1"), ("compare", "t"), ("orders-count", "arc"), ("orders-count", "s3")],
        ids=["compare-s1", "compare-t", "orders-arc", "orders-s3"],
    )
    @pytest.mark.parametrize("depth", [4097, 10**12])
    def test_over_budget_is_refused(self, capsys, row, depth):
        code, out, err = run(capsys, *row_argv(*row, depth))
        assert code == 2
        assert out == ""
        limit = _DEPTHS[row][1]
        assert err == f"error: {row[0]} --depth {depth} is over the limit of {limit} on {row[1]}\n"

    @pytest.mark.parametrize("row", list(_DEPTHS), ids=lambda row: "-".join(filter(None, row)))
    def test_one_past_each_limit_is_refused(self, capsys, row):
        limit = _DEPTHS[row][1]
        code, out, err = run(capsys, *row_argv(*row, limit + 1))
        assert (code, out) == (2, "")
        where = f" on {row[1]}" if row[1] else ""
        assert err == f"error: {row[0]} --depth {limit + 1} is over the limit of {limit}{where}\n"

    # orders-count's rows: TestOrdersCount.test_depth_below_one_is_refused.
    @pytest.mark.parametrize(
        "row",
        [row for row in _DEPTHS if row[0] != "orders-count"],
        ids=lambda row: "-".join(filter(None, row)),
    )
    def test_depth_below_one_is_refused(self, capsys, row):
        code, out, err = run(capsys, *row_argv(*row, 0))
        assert (code, out) == (2, "")
        assert err == f"error: {row[0]} --depth must be at least 1\n"

    def test_t_answers_at_its_default(self, capsys):
        code, report = run_json(capsys, *row_argv("compare", "t"))
        assert code == 0
        assert report["inputs"]["depth"] == _DEPTHS["compare", "t"][0] == 10
        assert report["verdict"]["kind"] == "stabilized"

    def test_s3_default_stops_at_the_prefix(self, capsys):
        argv = ["compare", "--space", "s3", "--bits", "011", "--x", "tooth_1:0", "--y", "tooth_1:1"]
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert report["inputs"]["depth"] == 3
        # An explicit depth past the prefix is the caller's, and refused.
        code, out, err = run(capsys, *argv, "--depth", "4")
        assert (code, out) == (2, "")
        assert err == "error: prefix too short: level 4 needs 4 bits, got 3\n"


class OverBudget(Exception):
    """A call ran past its budget.  Not a ValueError: ``main`` maps those to exit 2."""


# Twice the stated cost of 2 s per query in a fresh process, to absorb
# slower test machines; a query that never returns is caught all the same.
CALL_BUDGET_S = 4.0

# Mostly inputs a caller means, and odd ones: rationals such as 1/0 and 0.5,
# 20-digit integers, unknown strands and spiral points on each side of the
# circuit limit.
POINTS = {
    "arc": ["1/4", "3/4", "0", "0.5", "1/0", "12345678901234567890"],
    "s1": ["bar:1/2", "bar:-1/2", "wave:4", "bar:0.5", "wave:1/0", "wave:12345678901234567890"],
    "s2": ["ell:1", "ell:3", "wave:4", "bar:0", "ell:1/0", "ell:-12345678901234567890"],
    "s3": ["tooth_1:0", "tooth_1:1", "tooth_2:1/2", "gap_2:1/3", "origin:0", "tooth_99:0"],
    "t": ["spiral:1", "bar:0", "spiral:3/4", "wave:4", "spiral:1/512", "spiral:1/1024", "bar:1/0"],
}
TOWERS = ["r2=0", "r2=1", "r3=1", "r3=2", "r2=0,r4=2", "r4=5", "r2=x"]
LEVEL_SETS = ["even", "odd", "mod:3,1", "cofinite:5", "mod:4097,1", "mod:0,0", "cofinite:4097",
              f"cofinite:{10**20}", "primes", "mod:1/0,1"]
WORDS = ["0", "11", "0101", "", "2", "1" * 20]


def one_of(*choices):
    return st.sampled_from(choices)


def depth_flag(row):
    """No --depth, or one of the depths around the row's default and limit."""
    default, limit = _DEPTHS[row]
    return one_of(None, 0, 1, default, limit, limit + 1, 10**12).map(
        lambda depth: [] if depth is None else ["--depth", str(depth)]
    )


@st.composite
def compare_argv(draw):
    space = draw(one_of(*POINTS))
    argv = ["compare", "--space", space]
    if space == "s3":
        argv += draw(one_of(*(["--bits", bits] for bits in S3_POOL), []))
    else:
        variants = _VARIANTS[space] + ("bogus",)
        argv += draw(one_of([], *(["--variant", variant] for variant in variants)))
    argv += ["--x", draw(one_of(*POINTS[space])), "--y", draw(one_of(*POINTS[space]))]
    # A repeated [] weights the draw toward leaving the flag out.
    argv += draw(one_of([], [], *(["--ultrafilter", tower] for tower in TOWERS)))
    argv += draw(one_of([], [], ["--trace-depth", "0"], ["--trace-depth", "-1"]))
    return argv + draw(depth_flag(("compare", space)))


@st.composite
def orders_argv(draw):
    space = draw(one_of(*POINTS))
    return ["orders-count", "--space", space] + draw(depth_flag(("orders-count", space)))


@st.composite
def knaster_argv(draw):
    argv = ["knaster-witness", "--set", draw(one_of(*LEVEL_SETS))]
    argv += ["--u1", draw(one_of(*TOWERS)), "--u2", draw(one_of(*TOWERS))]
    return argv + draw(depth_flag(("knaster-witness", None)))


@st.composite
def orientation_argv(draw):
    if draw(st.booleans()):
        n = draw(one_of(3, 0, -1, 509, 510, 10**12))
        prefix = draw(one_of("1" * min(max(n, 0), 510), "101", ""))
        return ["orientation", "decompose", "--n", str(n), "--prefix", prefix]
    argv = ["orientation", "reach", "--from", draw(one_of(*WORDS)), "--to", draw(one_of(*WORDS))]
    argv += ["--parity", draw(one_of("even", "odd"))]
    return argv + draw(one_of([], *(["--depth", str(d)] for d in (1, 8, 17, 18, 10**12))))


cli_argv = st.tuples(
    one_of([], ["--format", "text"], ["--timing"]),
    st.one_of(
        compare_argv(),
        orders_argv(),
        knaster_argv(),
        orientation_argv(),
        st.just(["catalog", "list"]),
        one_of(*(["suite", "--seed", str(seed)] for seed in (0, 7, -1, 10**20))),
    ),
).map(lambda parts: parts[0] + parts[1])


def assert_memo_within_bound(memo):
    """The memo counts each pair and each row exactly, within its bound."""
    assert memo.size == sum(len(row) + 1 for row in memo._rows.values()) <= chains._LINK_PAIRS


def call_in_budget(argv):
    """(exit code, stderr) of ``main(argv)``; OverBudget past CALL_BUDGET_S."""

    def expire(signum, frame):
        raise OverBudget(f"chainorder {' '.join(argv)} took over {CALL_BUDGET_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, CALL_BUDGET_S)
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


class TestCostContract:
    """Every CLI input is answered within a stated cost or refused with exit 2."""

    def test_every_input_is_answered_or_refused_within_budget(self):
        def check(argv):
            code, err = call_in_budget(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv

        # Every row at its default and its limit, then the draws.
        for row, depths in _DEPTHS.items():
            for depth in depths:
                check(row_argv(*row, depth))
        settings(max_examples=120, deadline=None, derandomize=True)(given(cli_argv)(check))()

        # The caches the draws filled stay within the table's limits.
        limits = {}
        for (_, space), (_, limit) in _DEPTHS.items():
            limits[space] = max(limit, limits.get(space, 0))
        assert catalog._pass_data.cache_info().currsize <= limits["t"]
        families = [catalog.s3_family(bits) for bits in S3_POOL]
        for space, factory in [
            ("arc", catalog.arc_family),
            ("s1", catalog.s1_family),
            ("s2", catalog.s2_family),
            ("t", catalog.t_family),
        ]:
            families += [factory(variant) for variant in _VARIANTS[space]]
        for family in families:
            assert len(family._levels) <= limits[family.SPACE], family
            assert_memo_within_bound(family._links)
        info = catalog._s3_family_cached.cache_info()
        assert info.currsize <= info.maxsize

    def test_a_deep_arc_places_points_only_where_it_reads(self, capsys, monkeypatch):
        """The arc certifies in closed form, and its level n has 2**n links:
        a comparison at depth 4096 places each point once at each
        spot-check probe and trace level, and nowhere else."""
        placed = []
        index_of = ChainLevel.index_of

        def counting(level, point):
            placed.append((point, level.level))
            return index_of(level, point)

        monkeypatch.setattr(ChainLevel, "index_of", counting)
        # A family of its own, whose memo holds no rows yet.
        monkeypatch.setattr("chainorder.cli.arc_family", catalog.ArcChainFamily)
        x, y = "7/19", "700001/1900000"
        code, report = run_json(capsys, "compare", "--space", "arc", "--x", x, "--y", y,
                                "--depth", "4096")
        assert code == 0
        t = report["verdict"]["threshold"]
        assert t > 8
        reads = {t, t + 1, t + 3, 4096} | set(range(1, 9))
        assert sorted(placed) == sorted((Fraction(p), n) for p in (x, y) for n in reads)

    def test_a_deep_s1_memo_stays_within_its_bound(self):
        """One point against 200 others at S1's limit: each comparison
        reads 8192 pairs, more than the memo keeps."""
        family = catalog.s1_family("D")
        x = catalog.CatalogPoint("bar", Fraction(1, 2))
        for k in range(200):
            y = catalog.CatalogPoint("wave", Fraction(k, 7))
            assert chain_order_compare(family, x, y, None, 4096).kind == "stabilized"
            assert_memo_within_bound(family._links)


class TestBinaryWords:
    def test_s3_bits_must_be_ascii_binary(self, capsys):
        code, out, err = run(
            capsys,
            "compare", "--space", "s3", "--bits", "\u0661\u0660",
            "--x", "tooth_1:0", "--y", "tooth_1:1",
        )
        assert (code, out) == (2, "")
        assert "not a binary word" in err

    def test_reach_refuses_a_stray_letter(self, capsys):
        code, out, err = run(
            capsys, "orientation", "reach", "--from", "0a1", "--to", "1", "--parity", "odd"
        )
        assert (code, out) == (2, "")
        assert err == "error: not a binary word: '0a1'\n"


class TestOrientation:
    def test_decompose_example(self, capsys):
        code, report = run_json(
            capsys, "orientation", "decompose", "--n", "3", "--prefix", "101"
        )
        assert code == 0
        assert report["composition"] == [0, 1, 3, 1, 0]
        assert report["odd_length"] is True
        assert report["verified"] is True

    def test_decompose_prefix_length_checked(self, capsys):
        code, out, err = run(capsys, "orientation", "decompose", "--n", "2", "--prefix", "101")
        assert code == 2
        assert "length 2" in err

    @pytest.mark.parametrize("prefix", [[], ["--prefix", "1"]])
    def test_decompose_refuses_a_negative_n(self, capsys, prefix):
        code, out, err = run(capsys, "orientation", "decompose", "--n", "-1", *prefix)
        assert (code, out) == (2, "")
        assert err == "error: orientation decompose --n must be at least 0\n"

    def test_reach_odd(self, capsys):
        code, report = run_json(
            capsys,
            "orientation", "reach",
            "--from", "0", "--to", "11", "--parity", "odd",
        )
        assert code == 0
        assert report["result"]["composition"] == [0]
        assert report["result"]["source"] == [0, 0]
        assert report["result"]["image"] == [1, 1]
        assert report["verified"] is True

    def test_reach_even(self, capsys):
        code, report = run_json(
            capsys,
            "orientation", "reach",
            "--from", "0", "--to", "11", "--parity", "even",
        )
        assert code == 0
        assert report["result"]["parity"] == "even"
        assert report["verified"] is True

    def test_reach_depth_too_shallow(self, capsys):
        code, out, err = run(
            capsys,
            "orientation", "reach",
            "--from", "0", "--to", "11", "--parity", "odd", "--depth", "1",
        )
        assert code == 2
        assert "too shallow" in err

    def test_reach_estimate_doubles_per_level(self):
        steps = [_reach_log2_steps(1, 2, depth) for depth in range(12, 31)]
        assert all(1 <= b - a < 1.15 for a, b in zip(steps, steps[1:]))
        # The search bound grows with the working length, not the depth.
        assert _reach_log2_steps(16, 16, 18) > _reach_log2_steps(14, 14, 16) + 2
        assert _reach_log2_steps(1, 2, 8) < ORIENTATION_BUDGET_LOG2 < _reach_log2_steps(1, 2, 30)

    def test_decompose_estimate_is_quadratic_in_n(self):
        assert abs(_decompose_log2_steps(800) - _decompose_log2_steps(400) - 2) < 0.05
        assert _decompose_log2_steps(3) < ORIENTATION_BUDGET_LOG2 < _decompose_log2_steps(1000)

    @pytest.mark.parametrize(
        "argv,estimate",
        [
            (["reach", "--from", "0", "--to", "11", "--parity", "odd", "--depth", "30"],
             "2^36.3"),
            (["reach", "--from", "0", "--to", "11", "--parity", "odd",
              "--depth", "1000000000"], "2^1000000031.3"),
            (["reach", "--from", "", "--to", "1" * 40, "--parity", "odd", "--depth", "42"],
             "2^51.7"),
            (["decompose", "--n", "1000", "--prefix", "1" * 1000], "2^25.0"),
        ],
        ids=["reach-depth-30", "reach-depth-1e9", "reach-long-target", "decompose-1000"],
    )
    def test_over_budget_is_refused(self, capsys, argv, estimate):
        code, out, err = run(capsys, "orientation", *argv)
        assert code == 2
        assert out == ""
        assert f"needs up to {estimate} bit steps" in err
        assert f"budget of 2^{ORIENTATION_BUDGET_LOG2}" in err


class TestSuite:
    def test_text_lines_one_per_criterion(self, capsys):
        code, out, err = run(capsys, "--format", "text", "suite")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        for number, line in enumerate(lines[:11], start=1):
            assert line.startswith("PASS criterion")
            assert f"criterion {number:>2}:" in line
        assert lines[-1] == "all passed"

    def test_timing_lines_show_each_limit(self):
        criterion = {"criterion": 8, "name": "filter-axioms", "pass": True, "limit_s": 2.0}
        report = {"passed": True, "criteria": [dict(criterion, elapsed_s=0.2345)]}
        assert _suite_lines(report) == [
            "PASS criterion  8: filter-axioms (0.23s of 2.0s)",
            "all passed",
        ]
        report["criteria"] = [criterion]
        assert _suite_lines(report)[0] == "PASS criterion  8: filter-axioms"

    def test_json_report(self, capsys):
        code, report = run_json(capsys, "suite")
        assert code == 0
        assert report["passed"] is True
        assert [rep["criterion"] for rep in report["criteria"]] == list(range(1, 12))
        assert all("elapsed_s" not in rep for rep in report["criteria"])


class TestReportDir:
    ARGV = ("compare", "--space", "arc", "--x", "0", "--y", "1/2")

    def test_report_written(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINORDER_REPORT_DIR", str(tmp_path / "out"))
        code, out, err = run(capsys, *self.ARGV)
        assert (code, err) == (0, "")
        assert (tmp_path / "out" / "compare.json").read_bytes() == out.encode("utf-8")

    def test_text_format_still_writes_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("CHAINORDER_REPORT_DIR", raising=False)
        _, printed, _ = run(capsys, *self.ARGV)
        monkeypatch.setenv("CHAINORDER_REPORT_DIR", str(tmp_path / "out"))
        code, text, _ = run(capsys, "--format", "text", *self.ARGV)
        assert code == 0
        assert text.startswith("schema: chainorder-report/1\n")
        assert (tmp_path / "out" / "compare.json").read_text(encoding="utf-8") == printed


def convert(value):
    """The conversion the CLI ran before ``json.dumps`` until the one-pass renderer."""
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): convert(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [convert(v) for v in items]
    if hasattr(value, "as_dict"):
        return convert(value.as_dict())
    return str(value)


def text_lines(payload, indent=""):
    """The text layout the CLI printed from ``convert``'s output until the one-pass renderer."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                yield f"{indent}{key}:"
                yield from text_lines(value, indent + "  ")
            else:
                yield f"{indent}{key}: {value}"
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                yield from text_lines(value, indent + "  ")
            else:
                yield f"{indent}- {value}"


class Reported:
    """A value the CLI expands through ``as_dict``."""

    def __init__(self, value):
        self.value = value

    def as_dict(self):
        return self.value


class Color(IntEnum):
    """An int subclass whose repr is not JSON."""

    RED = 1
    GREEN = -20


class Real(float):
    pass


class Label(str):
    pass


class Ratio(Fraction):
    pass


class Items(list):
    pass


# Exact types take the renderer's type-dispatched path, subclasses its
# general one.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    st.fractions(),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.sampled_from(Color),
    st.floats(allow_nan=False, allow_infinity=False).map(Real),
    st.text(max_size=6).map(Label),
    st.fractions().map(Ratio),
)
reports = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Items),
        st.dictionaries(st.text(max_size=6), children, max_size=4).map(OrderedDict),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.sets(st.integers(), max_size=4),
        st.frozensets(st.fractions(), max_size=4),
        st.sets(st.text(max_size=4), max_size=4),
        children.map(Reported),
    ),
    max_leaves=30,
)


class TestRenderer:
    @given(reports)
    def test_json_matches_json_dumps(self, value):
        out = []
        _render(value, out, False)
        assert "".join(out) == json.dumps(convert(value), indent=2)

    @given(st.dictionaries(st.text(max_size=6), reports, max_size=4))
    def test_text_matches_the_line_layout(self, value):
        out = []
        _render(value, out, True)
        assert "".join(out) == "".join(line + "\n" for line in text_lines(convert(value)))


class TestUsageErrors:
    def test_unknown_space_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--space", "moon", "--x", "0", "--y", "1"])
        assert exc.value.code == 2

    def test_bits_rejected_off_s3(self, capsys):
        code, out, err = run(
            capsys, "compare", "--space", "arc", "--bits", "01", "--x", "0", "--y", "1"
        )
        assert code == 2
        assert "--bits" in err

    def test_variant_rejected_on_s3(self, capsys):
        code, out, err = run(
            capsys,
            "compare", "--space", "s3", "--bits", "01", "--variant", "bogus",
            "--x", "tooth_1:0", "--y", "tooth_1:1",
        )
        assert (code, out) == (2, "")
        assert err == "error: --variant does not apply to space s3, which takes --bits\n"


def parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` gives, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestParseRoutes:
    """``main`` hands a call that starts with a subcommand straight to its
    parser; it must read every call as the full parser does."""

    @given(cli_argv)
    @example(["compare", "--space", "arc", "--x", "0", "--y", "1", "--bogus"])
    @example(["compare", "--space", "arc", "--x", "0"])
    @example(["compare", "--space", "moon", "--x", "0", "--y", "1"])
    @example(["compare", "-h"])
    @example(["compare"])
    @example(["catalog"])
    @example(["orientation", "reach", "--from", "0", "--parity", "odd"])
    @example(["compare", "--space", "arc", "--x", "0", "--y", "1", "--=x"])
    @settings(deadline=None)
    def test_both_routes_agree(self, argv):
        parser, _ = _build_parser()
        lead = {"--format": 2, "--timing": 1}.get(argv[0], 0)
        # Also with a leading global flag moved after the subcommand's arguments.
        for call in (argv, argv[lead:] + argv[:lead]):
            assert parse_outcome(_parse_args, call) == parse_outcome(parser.parse_args, call)


class TestRepeatedCalls:
    """Every main call in one process shares one parser; none leaves state behind."""

    GOLDEN = ["compare", "--space", "s1", "--variant", "E",
              "--x", "bar:1/2", "--y", "bar:-1/2", "--depth", "8"]

    def test_errors_and_flags_do_not_leak(self, capsys, monkeypatch):
        monkeypatch.delenv("CHAINORDER_REPORT_DIR", raising=False)
        golden = (Path(__file__).with_name("golden") / "compare-s1-E.json").read_text(
            encoding="utf-8"
        )
        assert run(capsys, *self.GOLDEN) == (0, golden, "")

        code, _, err = run(capsys, "compare", "--space", "arc", "--x", "1/0", "--y", "1/2")
        assert code == 2
        assert err.startswith("error:")

        with pytest.raises(SystemExit) as exc:
            main(["compare", "--space", "arc", "--x", "1/4"])
        assert exc.value.code == 2
        assert "--y" in capsys.readouterr().err

        code, out, _ = run(capsys, "--format", "text", "--timing", *self.GOLDEN)
        assert code == 0
        assert "elapsed_s:" in out and not out.startswith("{")

        assert run(capsys, *self.GOLDEN) == (0, golden, "")


class TestClosedStdout:
    def test_broken_pipe_exits_1_without_a_traceback(self):
        argv = ["compare", "--space", "s1", "--variant", "D", "--x", "wave:4", "--y", "bar:1/2"]
        src = str(Path(chainorder.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "chainorder", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        # Closed long before the child has imported the package and
        # computed its report, so the report meets a broken pipe.
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")
