"""Command-line front end: named experiments with reproducible reports.

Reports are plain dicts rendered in one walk as JSON (``json.dumps``
with indent=2 and ASCII escapes: stable key order, rationals as "p/q", a
schema version field) or as indented text; golden files pin both.
Identical invocations produce byte-identical JSON; wall-clock readings
only enter with --timing.  Set CHAINORDER_REPORT_DIR to also write the
JSON bytes of each report into that directory.  ``orientation`` refuses
inputs over a stated cost budget; ``compare``, ``orders-count`` and
``knaster-witness`` take their default depth from one table, ``_DEPTHS``,
and refuse depths, spiral circuits and moduli over its limits.  Exit codes:
0 when every assertion the experiment embeds holds, 1 when one fails, 2
on usage or input errors.

Each call is parsed once.  A call whose first argument names a
subcommand goes straight to that subcommand's parser; the full parser
takes leading global options (``--format text compare ...``), ``--help``,
and a missing or unknown subcommand.  Both routes print the same usage
errors and give the same namespace.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring_ascii as _quote

from . import acceptance
from .catalog import (
    ArcChainFamily,
    CatalogPoint,
    OuterArcChainFamily,
    S1_WITNESSES,
    S2_WITNESSES,
    SineChainFamily,
    SpiralChainFamily,
    T_REPRESENTATIVES,
    arc_family,
    catalog_spaces,
    s1_family,
    s2_family,
    s3_family,
    s3_witness_pair,
    spiral_circuit,
    t_family,
)
from .chains import chain_order_compare, chain_trace
from .foundations import EventuallyPeriodicSet, rational, rational_str
from .knaster_witness import demonstrate_distinct_orders
from .orientation import (
    apply_composition,
    decompose_on_cylinder,
    flip,
    parse_word,
    reach_with_parity,
)
from .ultrafilter import SimulatedUltrafilter

SCHEMA = "chainorder-report/1"

_VARIANTS = {
    **{
        cls.SPACE: cls.VARIANTS
        for cls in (ArcChainFamily, SineChainFamily, OuterArcChainFamily, SpiralChainFamily)
    },
    "s3": ("binary prefix via --bits",),
}


class UsageError(ValueError):
    """Bad selector or malformed input; maps to exit code 2."""


def _family(space: str, variant: str | None, bits: str | None):
    if space == "s3":
        if variant is not None:
            raise UsageError("--variant does not apply to space s3, which takes --bits")
        if not bits:
            raise UsageError("space s3 needs --bits, e.g. --bits 011")
        return s3_family(bits)
    if bits:
        raise UsageError("--bits only applies to space s3")
    if space == "arc":
        return arc_family(variant or "standard")
    if space == "s1":
        return s1_family(variant or "D")
    if space == "s2":
        return s2_family(variant or "standard")
    return t_family(variant or "D")


# (command, space): (default depth, limit).  Each limit is the largest depth
# whose slowest measured query answers within 2 s and 128 MB peak RSS in a
# fresh process (Python 3.11 on a 2-vCPU virtual machine); compare and
# orders-count keep every level up to their depth.  T's level n traces
# spiral circuits 1..n and a point on circuit n traces the same, so T's
# compare limit also bounds the circuit of a spiral point.  knaster-witness
# builds its witness threads level by level on any level set, so its limit
# also bounds the modulus of mod:m,r.
_DEPTHS = {
    ("compare", "arc"): (20, 4096),
    ("compare", "s1"): (20, 4096),
    ("compare", "s2"): (20, 4096),
    ("compare", "s3"): (20, 48),
    ("compare", "t"): (10, 10),
    ("orders-count", "arc"): (20, 4096),
    ("orders-count", "s1"): (20, 2048),
    ("orders-count", "s2"): (20, 4096),
    ("orders-count", "s3"): (6, 6),
    ("orders-count", "t"): (6, 6),
    ("knaster-witness", None): (16, 4096),
}


def _depth(command: str, space: str | None, value: int | None, what: str = "--depth") -> int:
    """``value`` checked against its row of ``_DEPTHS``, or the row's default if None."""
    default, limit = _DEPTHS[command, space]
    if value is None:
        return default
    if value < 1:
        raise UsageError(f"{command} {what} must be at least 1")
    if value > limit:
        where = f" on {space}" if space else ""
        raise UsageError(f"{command} {what} {value} is over the limit of {limit}{where}")
    return value


def _parse_point(space: str, text: str):
    """Points are strand:param; the arc also accepts a bare rational."""
    if ":" in text:
        strand, _, param = text.partition(":")
        point = CatalogPoint(strand, rational(param))
    elif space == "arc":
        return rational(text)
    else:
        raise UsageError(f"point {text!r} must look like strand:param")
    catalog_spaces()[space].validate(point)
    if strand == "spiral":
        circuit = spiral_circuit(point.param)
        _depth("compare", space, circuit, f"point {text!r} on spiral circuit")
    return point


# Exact scalar types and how each format writes them.  Containers write
# such children inline; any other type, subclasses included, takes the
# general path in ``_render``.
_JSON_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    Fraction: lambda value: _quote(rational_str(value)),
}
_TEXT_SCALARS = {
    str: str,
    int: int.__repr__,
    float: float.__repr__,
    bool: bool.__repr__,
    type(None): repr,
    Fraction: rational_str,
}


def _render(value, out: list[str], text: bool, indent: str = "", label: str | None = None):
    """Append a report value to ``out`` in one walk, as JSON or as text lines.

    The JSON is ``json.dumps(indent=2)`` with ASCII escapes, after
    rationals become "p/q", tuples lists, sets sorted lists, ``as_dict``
    objects dicts and anything else its ``str``.  Text prints a scalar as
    ``label: value`` in a dict and ``- value`` in a list, a container's
    ``label:`` line first, each level two spaces deeper.  Values dispatch
    on their exact type, and containers write scalar children inline;
    int and float subclasses print as ``json`` prints them.
    """
    scalars = _TEXT_SCALARS if text else _JSON_SCALARS
    write = scalars.get(type(value))
    if write is not None:
        scalar = write(value)
    elif isinstance(value, (dict, list, tuple, set, frozenset)):
        keyed = isinstance(value, dict)
        if isinstance(value, (set, frozenset)):
            value = sorted(value)
        inner = indent + "  "
        get = scalars.get
        if text:
            if label is not None:
                out.append(f"{indent[:-2]}{label}:\n")
            for key, item in value.items() if keyed else enumerate(value):
                write = get(type(item))
                if write is None:
                    _render(item, out, True, inner, str(key) if keyed else None)
                else:
                    out.append(f"{indent}{str(key) + ': ' if keyed else '- '}{write(item)}\n")
        elif not value:
            out.append("{}" if keyed else "[]")
        else:
            separator, comma = ("{\n" if keyed else "[\n") + inner, ",\n" + inner
            if keyed:
                for key, item in value.items():
                    write = get(type(item))
                    if write is None:
                        out.append(f"{separator}{_quote(str(key))}: ")
                        _render(item, out, False, inner)
                    else:
                        out.append(f"{separator}{_quote(str(key))}: {write(item)}")
                    separator = comma
            else:
                for item in value:
                    write = get(type(item))
                    if write is None:
                        out.append(separator)
                        _render(item, out, False, inner)
                    else:
                        out.append(separator + write(item))
                    separator = comma
            out.append(f"\n{indent}{'}' if keyed else ']'}")
        return
    elif isinstance(value, str):
        scalar = value if text else _quote(value)
    elif isinstance(value, int):
        scalar = int.__repr__(value)
    elif isinstance(value, float):
        scalar = float.__repr__(value)
    elif hasattr(value, "as_dict"):
        _render(value.as_dict(), out, text, indent, label)
        return
    else:
        scalar = str(value) if text else _quote(str(value))
    if text:
        scalar = f"{indent[:-2]}{'- ' if label is None else label + ': '}{scalar}\n"
    out.append(scalar)


def _emit(report: dict, fmt: str, experiment: str) -> None:
    directory = os.environ.get("CHAINORDER_REPORT_DIR")
    if fmt == "json" or directory:
        parts: list[str] = []
        _render(report, parts, False)
        document = "".join(parts) + "\n"
    # Flushed here, so a reader that went away is seen inside ``main``.
    if fmt == "json":
        print(document, end="", flush=True)
    elif experiment == "suite":
        print("\n".join(_suite_lines(report)), flush=True)
    else:
        parts = []
        _render(report, parts, True)
        print("".join(parts), end="", flush=True)
    if directory:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{experiment}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(document)


# -- subcommands ---------------------------------------------------------------


def _cmd_catalog_list(args) -> tuple[dict, bool]:
    witness_sets = {
        "arc": {},
        "s1": S1_WITNESSES,
        "s2": S2_WITNESSES,
        "s3": {f"tooth_{i}_pair": s3_witness_pair(i) for i in (1, 2, 3)},
        "t": T_REPRESENTATIVES,
    }
    spaces = {}
    for name, space in catalog_spaces().items():
        spaces[name] = {
            "strands": [s.name for s in space.strands],
            "components": list(space.components()),
            "variants": list(_VARIANTS[name]),
            "witnesses": witness_sets[name],
        }
    return {"spaces": spaces}, True


def _cmd_compare(args) -> tuple[dict, bool]:
    depth = _depth("compare", args.space, args.depth)
    if args.trace_depth < 0:
        raise UsageError("compare --trace-depth must be at least 0")
    family = _family(args.space, args.variant, args.bits)
    if args.space == "s3" and args.depth is None:
        # The default never asks for more levels than the prefix has bits.
        depth = min(depth, len(family.bits))
    x = _parse_point(args.space, args.x)
    y = _parse_point(args.space, args.y)
    ultrafilter = SimulatedUltrafilter.parse(args.ultrafilter) if args.ultrafilter else None
    verdict = chain_order_compare(family, x, y, ultrafilter, depth)
    trace = chain_trace(family, x, y, min(depth, args.trace_depth))
    report = {
        "inputs": {
            "space": args.space,
            "variant": args.variant,
            "bits": args.bits,
            "x": x,
            "y": y,
            "depth": depth,
            "ultrafilter": ultrafilter.label() if ultrafilter else None,
        },
        "verdict": verdict.as_dict(),
        "trace": trace,
    }
    return report, verdict.kind != "unknown"


def _cmd_orders_count(args) -> tuple[dict, bool]:
    """Count the distinct stabilized orders a space's chain variants induce.

    Reuses the acceptance experiments so the CLI and the test suite
    agree on what counts as one order.
    """
    space = args.space
    depth = _depth("orders-count", space, args.depth)
    if space == "arc":
        rep = acceptance.arc_order_count(depth=depth)
        distinct, expected = rep["detail"]["distinct_orders"], 2
    elif space == "s1":
        rep = acceptance.s1_order_count(depth=depth)
        distinct, expected = rep["detail"]["distinct_orders"], 4
    elif space == "s2":
        rep = acceptance.s2_pattern_exclusion(depth=depth)
        patterns = {p for pats in rep["detail"]["realized"].values() for p in pats}
        distinct, expected = len(patterns), 2
    elif space == "s3":
        rep = acceptance.s3_prefix_distinctness(length=depth)
        distinct, expected = rep["detail"]["distinct_orders"], 2**depth
    else:
        rep = acceptance.t_component_orders(depth=depth)
        orders = rep["detail"]["component_orders"]
        distinct = len(orders) if rep["pass"] else sum(orders.values())
        expected = 2
    report = {
        "inputs": {"space": space, "depth": depth},
        "distinct_orders": distinct,
        "expected": expected,
        "detail": dict(rep["detail"]),
    }
    return report, distinct == expected and rep["pass"]


_NAMED_SETS = {
    "even": EventuallyPeriodicSet.evens,
    "evens": EventuallyPeriodicSet.evens,
    "odd": EventuallyPeriodicSet.odds,
    "odds": EventuallyPeriodicSet.odds,
}


def _parse_level_set(text: str) -> EventuallyPeriodicSet:
    if text in _NAMED_SETS:
        return _NAMED_SETS[text]()
    try:
        if text.startswith("mod:"):
            modulus, residue = (int(v) for v in text[4:].split(","))
            _depth("knaster-witness", None, modulus, "modulus")
            return EventuallyPeriodicSet.residue_class(residue, modulus)
    except ValueError as exc:
        raise UsageError(f"bad level set {text!r}: {exc}") from exc
    raise UsageError(f"unknown level set {text!r}; try even, odd or mod:m,r")


def _cmd_knaster_witness(args) -> tuple[dict, bool]:
    depth = _depth("knaster-witness", None, args.depth)
    level_set = _parse_level_set(args.set)
    u1 = SimulatedUltrafilter.parse(args.u1)
    u2 = SimulatedUltrafilter.parse(args.u2)
    demo = demonstrate_distinct_orders(level_set, depth, u1, u2)
    report = {
        "inputs": {"set": args.set, "depth": depth, "u1": u1.label(), "u2": u2.label()},
        "witness": demo["witness"],
        "verdict_u1": demo["verdict_u1"],
        "verdict_u2": demo["verdict_u2"],
        "distinct": demo["distinct"],
    }
    return report, bool(demo["distinct"])


# Orientation reports whose estimated cost exceeds 2^23 bit steps are
# refused; the largest accepted inputs take 0.2 to 0.5 s per process,
# interpreter start-up included (Python 3.11, one core of a 2-vCPU virtual
# machine), and each further bit of depth doubles the work.
ORIENTATION_BUDGET_LOG2 = 23


def _log2_steps(*terms: tuple[int, int]) -> float:
    """log2 of the sum of ``factor * 2**exponent`` over the terms.

    Logarithms keep absurd inputs such as ``--depth 10**9`` from
    building huge integers just to be refused.
    """
    logs = [math.log2(max(factor, 1)) + exponent for factor, exponent in terms]
    top = max(logs)
    return top + math.log2(sum(2.0 ** (x - top) for x in logs))


def _reach_log2_steps(src_len: int, tgt_len: int, depth: int) -> float:
    """Upper bound, in log2 bit steps, on the work of ``orientation reach``.

    The search may visit every (prefix, parity) state of the working
    length, trying each flip on a word of that length.  The check maps
    every tail of the source cylinder through at most 2 * (tgt_len + 2)
    flips and lists every tail of the image cylinder.
    """
    length = max(src_len, tgt_len)
    return _log2_steps(
        ((length + 1) * length, length + 1),
        (depth * (2 * tgt_len + 6), depth - length),
    )


def _decompose_log2_steps(n: int) -> float:
    """Upper bound, in log2 bit steps, on the work of ``orientation decompose``.

    The check maps every tail of the cylinder through the composition,
    which has at most 2n + 1 flips.
    """
    depth = max(n + 4, 8)
    return _log2_steps((depth * (2 * n + 2), depth - n))


def _within_budget(command: str, log2_steps: float) -> None:
    if log2_steps > ORIENTATION_BUDGET_LOG2:
        raise UsageError(
            f"{command} needs up to 2^{math.ceil(log2_steps * 10) / 10} bit steps, "
            f"over the budget of 2^{ORIENTATION_BUDGET_LOG2}"
        )


def _cmd_orientation_decompose(args) -> tuple[dict, bool]:
    if args.n < 0:
        raise UsageError("orientation decompose --n must be at least 0")
    prefix = parse_word(args.prefix) if args.prefix else ()
    if len(prefix) != args.n:
        raise UsageError(f"--prefix must be a binary word of length {args.n}")
    _within_budget("orientation decompose", _decompose_log2_steps(args.n))
    composition = decompose_on_cylinder(args.n, prefix)
    depth = max(args.n + 4, 8)
    verified = all(
        apply_composition(composition, prefix + tail) == flip(args.n, prefix + tail)
        for tail in product((0, 1), repeat=depth - args.n)
    )
    report = {
        "inputs": {"n": args.n, "prefix": list(prefix)},
        "composition": list(composition),
        "odd_length": len(composition) % 2 == 1,
        "verified_to_depth": depth,
        "verified": verified,
    }
    return report, verified and len(composition) % 2 == 1


def _cmd_orientation_reach(args) -> tuple[dict, bool]:
    src = parse_word(args.src) if args.src else ()
    tgt = parse_word(args.to) if args.to else ()
    _within_budget("orientation reach", _reach_log2_steps(len(src), len(tgt), args.depth))
    result = reach_with_parity(src, tgt, args.parity, args.depth)
    verified = result.verify(args.depth)
    report = {
        "inputs": {
            "from": list(src),
            "to": list(tgt),
            "parity": args.parity,
            "depth": args.depth,
        },
        "result": result.as_dict(),
        "verified": verified,
    }
    return report, verified


def _cmd_suite(args) -> tuple[dict, bool]:
    reports = acceptance.run_all(seed=args.seed)
    passed = all(rep["pass"] for rep in reports)
    if not args.timing:
        for rep in reports:
            rep.pop("elapsed_s", None)
    report = {"inputs": {"seed": args.seed}, "passed": passed, "criteria": reports}
    return report, passed


def _suite_lines(report: dict) -> list[str]:
    lines = []
    for rep in report["criteria"]:
        status = "PASS" if rep["pass"] else "FAIL"
        timing = f" ({rep['elapsed_s']:.2f}s of {rep['limit_s']}s)" if "elapsed_s" in rep else ""
        lines.append(f"{status} criterion {rep['criterion']:>2}: {rep['name']}{timing}")
    lines.append("all passed" if report["passed"] else "FAILURES above")
    return lines


# -- argument parsing ----------------------------------------------------------


def _depth_help(command: str) -> str:
    rows = ", ".join(
        f"{default}/{limit}" + (f" on {space}" if space else "")
        for (name, space), (default, limit) in _DEPTHS.items()
        if name == command
    )
    return f"levels, default/limit: {rows}"


# Built once per process on the first ``main`` call: parsing leaves the
# parsers unchanged, so repeated in-process calls share them.  Returns the
# full parser and its subcommand table, name to parser; ``_parse_args``
# picks which of them reads a call.
@functools.lru_cache(maxsize=1)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="chainorder",
        description="Chain-order experiments on chainable and circle-like continua.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock fields (breaks byte-identical output)",
    )
    # Mirror the globals onto every subcommand (SUPPRESS so a subcommand
    # default never overrides a value given before the subcommand).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--timing", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="catalog registry queries", parents=[common])
    catalog_sub = catalog.add_subparsers(dest="subcommand", required=True)
    catalog_sub.add_parser("list", help="spaces, variants, witness points", parents=[common])

    compare = sub.add_parser("compare", help="compare two points in one space", parents=[common])
    compare.add_argument("--space", required=True, choices=sorted(_VARIANTS))
    compare.add_argument("--variant")
    compare.add_argument("--bits", help="binary prefix for s3, e.g. 011")
    compare.add_argument("--x", required=True, help="strand:param, or a rational on arc")
    compare.add_argument("--y", required=True)
    compare.add_argument("--depth", type=int, help=_depth_help("compare"))
    compare.add_argument("--trace-depth", type=int, default=8)
    compare.add_argument("--ultrafilter", help="residue tower, e.g. r2=0")

    orders = sub.add_parser(
        "orders-count", help="count distinct stabilized orders", parents=[common]
    )
    orders.add_argument("--space", required=True, choices=sorted(_VARIANTS))
    orders.add_argument("--depth", type=int, help=_depth_help("orders-count"))

    knaster = sub.add_parser(
        "knaster-witness", help="two-tower witness comparison", parents=[common]
    )
    knaster.add_argument("--set", required=True, help="even, odd or mod:m,r")
    knaster.add_argument("--depth", type=int, help=_depth_help("knaster-witness"))
    knaster.add_argument("--u1", required=True, help="residue tower, e.g. r2=0")
    knaster.add_argument("--u2", required=True, help="residue tower, e.g. r2=1")

    orientation = sub.add_parser(
        "orientation", help="tail-flip word combinatorics", parents=[common]
    )
    orient_sub = orientation.add_subparsers(dest="subcommand", required=True)
    decompose = orient_sub.add_parser(
        "decompose", help="odd composition fixing a cylinder", parents=[common]
    )
    decompose.add_argument("--n", type=int, required=True)
    decompose.add_argument("--prefix", default="", help="binary word of length n")
    reach = orient_sub.add_parser(
        "reach", help="parity-steered cylinder reach", parents=[common]
    )
    reach.add_argument("--from", dest="src", required=True, help="source prefix, e.g. 0")
    reach.add_argument("--to", required=True, help="target prefix, e.g. 11")
    reach.add_argument("--parity", choices=("even", "odd"), required=True)
    reach.add_argument("--depth", type=int, default=8)

    suite = sub.add_parser("suite", help="run every acceptance experiment", parents=[common])
    suite.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the full parser would, by one parser only.

    The full parser reads every argument against its own options before it
    hands the rest to the subcommand's parser, and refuses one that
    abbreviates several of them; only "--=..." can.  Such calls, and those
    whose first argument names no subcommand, take the full parser.
    """
    parser, subcommands = _build_parser()
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None or any(arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    args = argparse.Namespace(
        format=parser.get_default("format"), timing=parser.get_default("timing"), command=argv[0]
    )
    args, extras = sub.parse_known_args(argv[1:], args)
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


_COMMANDS = {
    "catalog-list": _cmd_catalog_list,
    "compare": _cmd_compare,
    "orders-count": _cmd_orders_count,
    "knaster-witness": _cmd_knaster_witness,
    "orientation-decompose": _cmd_orientation_decompose,
    "orientation-reach": _cmd_orientation_reach,
    "suite": _cmd_suite,
}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)

    experiment = args.command + (f"-{args.subcommand}" if "subcommand" in args else "")
    started = time.perf_counter()
    try:
        body, passed = _COMMANDS[experiment](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {"schema": SCHEMA, "experiment": experiment, "pass": passed}
    report.update(body)
    if args.timing:
        report["elapsed_s"] = round(time.perf_counter() - started, 4)
    try:
        _emit(report, args.format, experiment)
    except BrokenPipeError:
        # The reader closed stdout.  As the signal module's docs advise,
        # point it at devnull so the flush at shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
