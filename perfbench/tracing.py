"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces, in the loaded ``flowstab`` modules, the names
the simulator calls through with wrappers that record one span per call:
name, start, end, parent span and simulator-call id.  ``uninstall`` puts the
originals back, so untimed and timed phases can alternate in one process.
A name that a later refactor removed is skipped with a warning, and the
metrics that depend on it are reported missing instead of wrong.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

from scipy.sparse.linalg import LinearOperator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    call: int = -1
    children_s: float = 0.0
    #: time spent in the tracer's own hooks while this span was open
    paused_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start - self.paused_s

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    missing: set = field(default_factory=set)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)
    _calls: int = 0

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        call = self.spans[parent].call if parent >= 0 else -1
        if name == "simulate.call":
            call = self._calls
            self._calls += 1
        span = Span(name, time.perf_counter(), parent=parent, call=call)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration

    def wrap(self, name: str, fn, after=None, on_error=None):
        """``fn`` inside a span; ``after(result)`` / ``on_error(exc)`` count.

        ``after`` may be costly (``L``/``U`` of a factorization are built on
        access); its time is taken out of every span open around it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._close(span)
            if after is not None:
                start = time.perf_counter()
                after(result)
                paused = time.perf_counter() - start
                for index in self._stack:
                    self.spans[index].paused_s += paused
            return result
        return traced

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        # import every owner first, so that aliases bound at import time
        # hold the originals and are found and restored
        hooks = [(hook, _resolve(hook[1])) for hook in _hooks(self)]
        for (layer, where, attr, aliases, make), owner in hooks:
            if owner is None or attr not in getattr(owner, "__dict__", {}):
                if layer not in self.missing:
                    print(f"warning: {where}.{attr} not found; "
                          f"{layer} metrics are missing", file=sys.stderr)
                self.missing.add(layer)
                continue
            original = owner.__dict__[attr]
            wrapped = make(original)
            self.patch(owner, attr, wrapped)
            if aliases:
                for module in _flowstab_modules():
                    if module is not owner and module.__dict__.get(attr) is original:
                        self.patch(module, attr, wrapped)

    # -- reporting -------------------------------------------------------

    def totals(self) -> dict:
        """name -> (count, inclusive seconds, self seconds)."""
        out: dict = {}
        for span in self.spans:
            n, inc, own = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (n + 1, inc + span.duration, own + span.self_s)
        return out

    def first(self, name: str) -> float:
        return next((s.duration for s in self.spans if s.name == name), 0.0)

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.paused_s, s.parent, s.call]
                for s in self.spans]


def _flowstab_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "flowstab" or n.startswith("flowstab.")]


def _resolve(where: str):
    module, _, cls = where.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


def _hooks(tracer: Tracer):
    """(layer, owner, attribute, patch aliases too, wrapper factory)."""
    count, wrap = tracer.count, tracer.wrap

    def plain(name, **kw):
        return lambda fn: wrap(name, fn, **kw)

    def lu(prefix):
        def after(lu_):
            count(prefix + ".lu_nnz", int(lu_.L.nnz + lu_.U.nnz))
        return plain(prefix + ".factor", after=after)

    def steady_after(result):
        count("steady.steps", len(result.trace) - 1)

    def steady_error(exc):
        count("steady.failed")
        count("steady.steps", max(len(getattr(exc, "trace", []) or []) - 1, 0))

    def rejected(exc):
        if type(exc).__name__ == "PositivityError":
            count("viscosity.rejected")

    def eigs_factory(fn):
        def counted(op, *args, **kwargs):
            def matvec(x):
                count("eigen.op_applies")
                return op.matvec(x)
            probe = LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            return fn(probe, *args, **kwargs)
        return wrap("eigen.arpack", functools.wraps(fn)(counted))

    def surrogate_after(result):
        evaluate = getattr(result, "evaluate", None)
        if evaluate is not None and "surrogates.eval" not in tracer.missing:
            object.__setattr__(result, "evaluate", wrap("surrogates.eval", evaluate))

    def fit(name):
        return plain("surrogates.fit." + name, after=surrogate_after)

    return [
        ("meshes.build", "flowstab.config", "build_mesh", True, plain("meshes.build")),
        ("meshes.build", "flowstab.config", "build_space_for", True,
         plain("meshes.space")),
        ("randomfield.kl", "flowstab.config", "build_kl", True, plain("randomfield.kl")),
        ("viscosity.model", "flowstab.config", "build_model", True,
         plain("viscosity.model")),
        ("simulate.call", "flowstab.simulate:Simulator", "compute", False,
         plain("simulate.call")),
        ("viscosity.evaluate", "flowstab.viscosity:ViscosityModel", "evaluate", False,
         plain("viscosity.evaluate", on_error=rejected)),
        ("assembly.operators", "flowstab.simulate", "build_operators", False,
         plain("assembly.operators")),
        ("steady.solve", "flowstab.simulate", "solve_steady", False,
         plain("steady.solve", after=steady_after, on_error=steady_error)),
        ("steady.factor", "flowstab.steady", "splu", False, lu("steady")),
        ("eigen.pencil", "flowstab.simulate", "build_problem", False,
         plain("eigen.pencil")),
        ("eigen.solve", "flowstab.simulate", "rightmost", False,
         plain("eigen.solve", on_error=lambda exc: count("eigen.failed"))),
        ("eigen.retry", "flowstab.eigen", "rightmost", False, plain("eigen.retry")),
        ("eigen.factor", "flowstab.eigen", "splu", False, lu("eigen")),
        ("eigen.arpack", "flowstab.eigen", "eigs", False, eigs_factory),
        ("surrogates.fit.sc", "flowstab.cli", "sc_train", False, fit("sc")),
        ("surrogates.fit.gp", "flowstab.cli", "gp_train", False, fit("gp")),
        ("surrogates.fit.nn", "flowstab.cli", "nn_train", False, fit("nn")),
        ("surrogates.eval", "flowstab.cli", "load_surrogate", False,
         lambda fn: _after(fn, surrogate_after)),
        ("metrics.report", "flowstab.cli", "build_report", False,
         plain("metrics.report")),
    ]


def _after(fn, hook):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result)
        return result
    return wrapped
