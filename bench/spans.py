"""Layer spans recorded from outside the program.

`install` replaces the public entry points of each chainorder module
with thin wrappers that open a span around the original call.  Spans
nest on a stack, so every finished span knows its parent: a layer's
self time is its span time minus the time of the spans it caused.
Only aggregates are kept (calls, inclusive and self seconds per span
name, plus per parent-child totals), which is all the per-layer
metrics need and keeps memory flat over long runs.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    """Aggregates nested spans by name."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        # (parent, child) -> parent span time not covered by that child,
        # summed over parent spans that had such a child.
        self.remainder: dict[tuple[str, str], float] = {}
        self.extra: dict[str, float] = {}
        self._stack: list[list] = []

    def add(self, name: str, amount: float) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + amount

    def call(self, name, fn, args, kwargs, on_finish=None):
        frame = [name, {}]  # child name -> seconds
        self._stack.append(frame)
        start = self.clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            self._finish(name, elapsed, frame[1])
            if on_finish is not None:
                on_finish(elapsed, result)

    def _finish(self, name: str, elapsed: float, children: dict) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        # A span nested in a span of the same name is already inside
        # that span's inclusive time.
        if all(frame[0] != name for frame in self._stack):
            self.inclusive[name] = self.inclusive.get(name, 0.0) + elapsed
        self.self_time[name] = (
            self.self_time.get(name, 0.0) + elapsed - sum(children.values())
        )
        for child, seconds in children.items():
            key = (name, child)
            self.remainder[key] = self.remainder.get(key, 0.0) + elapsed - seconds
        if self._stack:
            siblings = self._stack[-1][1]
            siblings[name] = siblings.get(name, 0.0) + elapsed

    def snapshot(self) -> dict[str, float]:
        """Every recorded quantity under its metric name."""
        out: dict[str, float] = {}
        for name, count in self.calls.items():
            out[f"{name}.calls"] = float(count)
            out[f"{name}.s"] = self.inclusive.get(name, 0.0)
            out[f"{name}.self_s"] = self.self_time[name]
        out["chains.spot_check_s"] = self.remainder.get(
            ("chains.compare", "catalog.certificate"), 0.0
        )
        out.update(self.extra)
        return out


def _wrap(tracer: Tracer, name: str, fn, on_finish=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, on_finish)

    return traced


def _patch_function(program, module, attr: str, wrapper_of) -> bool:
    """Replace a module function everywhere the package refers to it."""
    original = getattr(module, attr, None)
    if original is None:
        return False
    wrapper = wrapper_of(original)
    for mod in program.modules():
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)
    return True


def _patch_method(cls, attr: str, wrapper_of) -> bool:
    original = cls.__dict__.get(attr)
    if original is None:
        return False
    setattr(cls, attr, wrapper_of(original))
    return True


def _family_classes(catalog) -> list[type]:
    """Catalog chain families: classes with both `level` and a certifier."""
    return [
        value
        for value in vars(catalog).values()
        if isinstance(value, type)
        and value.__module__ == catalog.__name__
        and "level" in value.__dict__
        and "compare_certificate" in value.__dict__
    ]


def install(tracer: Tracer, program) -> list[str]:
    """Wrap the layer entry points of a freshly imported program.

    Returns the names of entry points that could not be found, so a
    renamed function shows up as a warning rather than a crash.
    """
    missing: list[str] = []

    def span(name, on_finish=None):
        return lambda fn: _wrap(tracer, name, fn, on_finish)

    functions = [
        (program.cli, "main", span("cli.main")),
        (program.chains, "chain_order_compare", span("chains.compare")),
        (program.chains, "chain_trace", span("chains.trace")),
        (program.catalog, "validate_level", span("catalog.validate")),
        (program.inverse_limit, "inverse_limit_order", span("inverse_limit.order")),
        (program.inverse_limit, "sign_certificate", span("inverse_limit.sign_certificate")),
        (program.knaster_witness, "build_witness", span("knaster_witness.build")),
        (program.orientation, "reach_with_parity", span("orientation.reach")),
        (program.orientation, "decompose_on_cylinder", span("orientation.decompose")),
    ]
    for module, attr, wrapper_of in functions:
        if not _patch_function(program, module, attr, wrapper_of):
            missing.append(f"{module.__name__}.{attr}")

    def count_extended(elapsed, decision):
        if decision is not None and getattr(decision, "extended", False):
            tracer.add("ultrafilter.extended.calls", 1.0)

    epset = program.foundations.EventuallyPeriodicSet
    methods = [
        (program.chains.ChainLevel, "index_of", span("chains.index_of")),
        (program.chains.PullbackSequence, "level", span("chains.pullback_level")),
        (program.inverse_limit.ThreadPoint, "coordinate", span("inverse_limit.coordinate")),
        (program.plmaps.PLMap, "preimages", span("plmaps.preimages")),
        (epset, "__post_init__", span("foundations.epset")),
        (epset, "_combine", span("foundations.epset")),
        (epset, "complement", span("foundations.epset")),
        (
            program.ultrafilter.SimulatedUltrafilter,
            "decide",
            span("ultrafilter.decide", count_extended),
        ),
    ]
    for cls, attr, wrapper_of in methods:
        if not _patch_method(cls, attr, wrapper_of):
            missing.append(f"{cls.__name__}.{attr}")

    families = _family_classes(program.catalog)
    if not families:
        missing.append("catalog chain families")
    for cls in families:
        _patch_method(cls, "compare_certificate", span("catalog.certificate"))
        _patch_method(cls, "level", lambda fn: _traced_level(tracer, fn))
    return missing


def _traced_level(tracer: Tracer, level_fn):
    """Span only the calls that build a level, tagged by space.

    A family keeps built levels in its `_levels` dict; a call for a
    level already there is a lookup and is not a build.
    """

    @functools.wraps(level_fn)
    def traced(family, n, *args, **kwargs):
        built = getattr(family, "_levels", None)
        if built is not None and n in built:
            return level_fn(family, n, *args, **kwargs)
        space = family.space.name

        def record(elapsed, level):
            tracer.add(f"catalog.level_build_s.{space}", elapsed)
            if level is not None:
                tracer.add("catalog.links_built", float(level.size))

        return tracer.call(
            "catalog.level_build", level_fn, (family, n) + args, kwargs, record
        )

    return traced


def warn_missing(missing: list[str]) -> None:
    for name in missing:
        print(f"trace: entry point {name} not found; its spans read 0", file=sys.stderr)
