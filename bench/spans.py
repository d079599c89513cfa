"""Spans and counts for calls into nwave's layers, recorded from outside.

``install`` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent) and per-name counts.  A function
bound by ``from .x import y`` has one binding in every module that imports
it (``nwave.verify.residual``, ``nwave.verify.apply``,
``nwave.toda.divexact``, ``nwave.cli.solution_from_tau``, ...), so every
module of the package that holds the original object gets the wrapper;
patching only the defining module would miss those calls.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans plus the time outside any span add up to the
traced wall time.  Span names are ``<module>.<what>``: the module is the
layer.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from time import perf_counter

#: Span records kept for the trace file; later spans are still counted.
MAX_SPANS = 50_000

LAYERS = ("exprat", "spectral", "tau", "wavesys", "transforms", "toda", "verify", "cli")


def config_terms(cfg) -> int:
    """Terms (num + den) over every field of a configuration."""
    return sum(len(v.num.terms) + len(v.den.terms) for v in cfg.fields.values())


class Tracer:
    def __init__(self) -> None:
        self.spans = []     # (name, start, end, parent span index or -1)
        self.dropped = 0
        self.calls = {}     # span name -> calls
        self.self_s = {}    # span name -> summed self time
        self.counts = {}    # "<span name>.<what>" -> number
        self.top_s = 0.0    # summed duration of spans without a parent
        self.paused = False
        self._stack = []    # per open span: [child seconds, span index]

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    @contextmanager
    def pause(self):
        """Run the body untraced (the benchmark's own answer checks)."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def call(self, name, fn, args, kwargs, post):
        if self.paused:
            return fn(*args, **kwargs)
        if callable(name):
            name = name(args, kwargs)
        parent = self._stack[-1] if self._stack else None
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        frame = [0.0, index]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(name, start, frame, parent)
            if post is not None:
                post(self, name, args, None, exc)
            raise
        self._close(name, start, frame, parent)
        if post is not None:
            post(self, name, args, result, None)
        return result

    def _close(self, name, start, frame, parent) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[0]
        if parent is None:
            self.top_s += duration
        else:
            parent[0] += duration
        if frame[1] >= 0:
            self.spans[frame[1]] = (name, start, end, parent[1] if parent else -1)

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out


# -- counters computed from a traced call's arguments and result -------------------


def _mul_post(tr, name, args, result, exc):
    from nwave.exprat import ExpPoly

    if not isinstance(result, ExpPoly):
        return  # NotImplemented: another operand's method takes over
    a, b = args
    tr.add(f"{name}.pairs", len(a.terms) * (len(b.terms) if isinstance(b, ExpPoly) else 1))
    tr.add(f"{name}.terms_out", len(result.terms))
    tr.peak("exprat.peak_terms", len(result.terms))


def _add_post(tr, name, args, result, exc):
    from nwave.exprat import ExpPoly

    if isinstance(result, ExpPoly):
        tr.peak("exprat.peak_terms", len(result.terms))


def _divexact_post(tr, name, args, result, exc):
    from nwave.exprat import InexactDivision

    if isinstance(exc, InexactDivision):
        tr.add(f"{name}.refused", 1)
    elif exc is None:
        tr.add(f"{name}.quot_terms", len(result.terms))
        tr.peak("exprat.peak_terms", len(result.terms))


def _solution_post(tr, name, args, result, exc):
    if exc is None:
        tr.add(f"{name}.terms_out", config_terms(result))


def _apply_post(tr, name, args, result, exc):
    if exc is None:
        tr.add(f"{name}.terms_in", config_terms(args[1]))
        tr.add(f"{name}.terms_out", config_terms(result))


_SKIPPED = re.compile(r"poles skipped at (.*)$")


def _verify_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return f"verify.{mode}"


def _verify_post(tr, name, args, result, exc):
    if exc is None and name == "verify.numeric":
        for check in result.checks:
            found = _SKIPPED.search(check.detail)
            if found:
                tr.add(f"{name}.points_skipped", found.group(1).count("("))


def _emit_post(tr, name, args, result, exc):
    if exc is None:
        tr.add("cli.bytes_out", len(args[0].encode()))


def _targets():
    """(span name, owner, attribute, post hook) for every traced entry."""
    from nwave import cli, exprat, spectral, tau, toda, transforms, verify, wavesys

    poly, rat = exprat.ExpPoly, exprat.ExpRational
    return [
        # __sub__/__rsub__ are implemented by __add__, so they count as poly_add.
        ("exprat.poly_mul", poly, "__mul__", _mul_post),
        ("exprat.poly_mul", poly, "__rmul__", _mul_post),
        ("exprat.poly_add", poly, "__add__", _add_post),
        ("exprat.poly_add", poly, "__radd__", _add_post),
        ("exprat.divexact", exprat, "divexact", _divexact_post),
        ("exprat.rat_norm", rat, "__init__", None),
        ("exprat.rat_eq", rat, "__eq__", None),
        ("exprat.eval", poly, "eval", None),
        ("exprat.eval", poly, "eval_mass", None),
        ("exprat.eval", rat, "eval", None),
        ("spectral.initial_config", spectral, "initial_config", None),
        ("tau.subset_sum", tau, "_tau", None),
        ("tau.solution", tau, "solution_from_tau", _solution_post),
        ("tau.gra", tau, "check_gra", None),
        ("wavesys.residual", wavesys, "residual", None),
        ("wavesys.config_eq", wavesys.FieldConfig, "__eq__", None),
        ("transforms.apply", transforms, "apply", _apply_post),
        ("toda.det", toda, "det_bareiss", None),
        ("toda.ab_step", toda, "ab_step", None),
        ("toda.toda_residual", toda, "toda_residual", None),
        ("toda.first_root_chain", toda, "first_root_chain", None),
        (_verify_name, verify, "verify_config", _verify_post),
        ("cli.main", cli, "main", None),
        ("cli.config_to_doc", cli, "config_to_doc", None),
        ("cli.config_from_doc", cli, "config_from_doc", None),
        ("cli.emit", cli, "_emit", _emit_post),
    ]


SPANS = (
    "exprat.poly_mul", "exprat.poly_add", "exprat.divexact", "exprat.rat_norm",
    "exprat.rat_eq", "exprat.eval", "spectral.initial_config", "tau.subset_sum",
    "tau.solution", "tau.gra", "wavesys.residual", "wavesys.config_eq",
    "transforms.apply", "toda.det", "toda.ab_step", "toda.toda_residual",
    "toda.first_root_chain", "verify.exact", "verify.numeric", "cli.main",
    "cli.config_to_doc", "cli.config_from_doc", "cli.emit",
)

#: Every per-layer metric of a traced run: (name, unit, better).
LAYER_METRICS = (
    [(f"{span}.{what}", unit, "lower")
     for span in SPANS for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("exprat.poly_mul.pairs", "count", "lower"),       # sum of |a|*|b|
        ("exprat.poly_mul.terms_out", "count", "lower"),
        ("exprat.poly_mul.yield", "ratio", "higher"),      # terms_out / pairs
        ("exprat.divexact.quot_terms", "count", "lower"),
        ("exprat.divexact.refused", "count", "lower"),
        ("exprat.peak_terms", "count", "lower"),
        ("tau.solution.terms_out", "count", "lower"),
        ("transforms.apply.terms_in", "count", "lower"),
        ("transforms.apply.terms_out", "count", "lower"),
        ("transforms.apply.swell", "ratio", "lower"),      # terms_out / terms_in
        ("verify.numeric.points_skipped", "count", "lower"),
        ("cli.bytes_out", "B", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("trace.wall_s", "s", "lower"),           # the traced pass
        ("trace.untraced_wall_s", "s", "lower"),  # the same jobs, untraced
        ("trace.overhead_s", "s", "lower"),       # traced minus untraced wall
        ("trace.unspanned_s", "s", "lower"),      # traced wall outside every span
        ("trace.spans", "count", "lower"),
    ]
)


def layer_metrics(tracer: Tracer, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Value of every metric in LAYER_METRICS; 0 for layers a workload leaves idle."""
    values = dict(tracer.counts)
    for name in tracer.calls:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.self_s[name]
    for layer, seconds in tracer.layer_self_s().items():
        values[f"{layer}.self_s"] = seconds
    pairs = values.get("exprat.poly_mul.pairs", 0)
    if pairs:
        values["exprat.poly_mul.yield"] = values["exprat.poly_mul.terms_out"] / pairs
    terms_in = values.get("transforms.apply.terms_in", 0)
    if terms_in:
        values["transforms.apply.swell"] = values["transforms.apply.terms_out"] / terms_in
    values["trace.wall_s"] = traced_wall_s
    values["trace.untraced_wall_s"] = untraced_wall_s
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    values["trace.unspanned_s"] = traced_wall_s - tracer.top_s
    values["trace.spans"] = sum(tracer.calls.values())
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in LAYER_METRICS}


def _wrapper(tracer, name, fn, post):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, post)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Wrap every target at every binding; returns a function that undoes it."""
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "nwave" or n.startswith("nwave."))]
    for name, owner, attr, post in _targets():
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, post))
            continue
        original = getattr(owner, attr)
        traced = _wrapper(tracer, name, original, post)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, binding, original))
                    setattr(module, binding, traced)

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall
