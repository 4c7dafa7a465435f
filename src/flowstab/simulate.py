"""Monte Carlo driver: repeated rightmost-eigenvalue solves over random
viscosity realizations, with an on-disk evaluation cache.

The expensive map ``xi -> rightmost eigenvalue`` is wrapped in a
:class:`Simulator` that composes viscosity evaluation, the steady solve and
the eigensolve.  Results can be cached in an append-only JSONL file keyed by
the sample bytes together with a fingerprint of the full configuration, so a
cache written under one setup can never leak into another.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import multiprocessing
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, EigenError, PositivityError, SolverError
from .eigen import EigenResult, build_problem, rightmost
from .gpc import FAMILIES
from .meshes import MixedSpace
from .steady import (FlowState, SolverSettings, SteadyResult, build_operators,
                     factor, solve_steady, tangent)
from .viscosity import ViscosityModel


def _one_blas_thread() -> None:
    """Run every OpenBLAS loaded in this process on one thread.

    The fork pool of :func:`monte_carlo` is the only parallelism: BLAS
    threads would spin beside SuperLU and ARPACK on the cores the workers
    need, and their split of a reduction moves results by an ulp.  Forked
    workers inherit the setting.  Does nothing without ``/proc/self/maps``.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = set(re.findall(r"/\S*openblas\S*\.so\S*", fh.read()))
    except OSError:
        return
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


_one_blas_thread()

#: version of the stability chain, hashed into the simulator fingerprint;
#: every change that moves results (selection rule, warm start, tolerances)
#: bumps it, so cache records and surrogates of an older chain are redone.
#: 1: of a complex pair, the member with positive imaginary part
#: 2: Newton from the nominal steady state, steady tolerance 1e-10, ARPACK tol 1e-8
#: 3: OpenBLAS on one thread, so results do not depend on the core count
#: 4: saddle matrices filled into one fixed pattern, which sums element
#:    entries in a new order
#: 5: the rightmost eigenvalue tracked from the nominal eigenpair
#: 6: Newton from the tangent prediction of the steady state
#: 7: chord steps from that prediction, and threshold pivoting in every LU
ALGORITHM = 7

@dataclass(frozen=True)
class SampleSet:
    """Reproducible batch of germ draws ``xi`` with their provenance."""

    xi: np.ndarray          # (n, dim)
    seed: int
    distribution: str

    def __post_init__(self):
        object.__setattr__(self, "xi", np.atleast_2d(np.asarray(self.xi, dtype=float)))
        if self.distribution not in FAMILIES.values():
            raise ConfigError(f"unknown distribution {self.distribution!r}")

    @property
    def n(self) -> int:
        return self.xi.shape[0]

    @property
    def dim(self) -> int:
        return self.xi.shape[1]

    @classmethod
    def draw(cls, n: int, dim: int, distribution: str, seed: int) -> "SampleSet":
        """Fresh draws: standard normal or uniform on [-1, 1]."""
        if n < 1 or dim < 1:
            raise ConfigError("sample set needs n >= 1 and dim >= 1")
        rng = np.random.default_rng(seed)
        if distribution == "normal":
            xi = rng.standard_normal((n, dim))
        else:
            xi = rng.uniform(-1.0, 1.0, size=(n, dim))
        return cls(xi, seed, distribution)

    def content_hash(self) -> str:
        payload = np.ascontiguousarray(self.xi, dtype=np.float64).tobytes()
        return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class SampleRecord:
    """Outcome of one simulator call.

    ``digest`` is a short hash of the solver iteration trace; two records
    computed from the same configuration and sample agree bitwise.
    """

    xi: tuple
    lam_re: float
    lam_im: float
    failed: bool
    note: str = ""
    digest: str = ""

    def to_dict(self) -> dict:
        return {
            "xi": list(self.xi),
            "lam_re": self.lam_re,
            "lam_im": self.lam_im,
            "failed": self.failed,
            "note": self.note,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampleRecord":
        """The record whose :meth:`to_dict` is `data`, as JSON decoded it;
        raises ``KeyError`` or ``TypeError`` when a field is missing or of
        the wrong type (numbers are ints or floats, not bools), and
        ``OverflowError`` when an int has no float."""
        xi, lam = data["xi"], (data["lam_re"], data["lam_im"])
        note, digest = data.get("note", ""), data.get("digest", "")
        if not (type(xi) is list and type(data["failed"]) is bool
                and all(type(v) in (int, float) for v in [*xi, *lam])
                and type(note) is type(digest) is str):
            raise TypeError("a record field is missing or of the wrong type")
        return cls(tuple(map(float, xi)), *map(float, lam), data["failed"],
                   note, digest)


class EvalCache:
    """Append-only JSONL store of simulator records.

    Every record carries the configuration fingerprint it was computed
    under; lookups ignore records whose fingerprint differs from the
    cache's own, so stale or foreign entries are recomputed rather than
    reused.
    """

    def __init__(self, path, fingerprint: str):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._store: dict[str, SampleRecord] = {}
        # what the next append writes first, so a new record never glues
        # onto the last line: the length a torn tail is cut back to (None
        # when there is none), and the newline a whole last record lacks
        self._cut: Optional[int] = None
        self._lead = b""
        if self.path.exists():
            records, complete = read_cache(self.path)
            size = self.path.stat().st_size
            if complete < size:
                self._cut = complete
            elif complete > size:
                self._lead = b"\n"
            for key, made_under, record in records:
                if made_under == fingerprint:
                    self._store.setdefault(key, record)

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: str) -> Optional[SampleRecord]:
        return self._store.get(key)

    def put(self, key: str, record: SampleRecord) -> None:
        if key in self._store:
            return
        self._store[key] = record
        data = {"key": key, "fingerprint": self.fingerprint}
        data.update(record.to_dict())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab") as fh:
            if self._cut is not None:
                fh.truncate(self._cut)
            line = json.dumps(data, sort_keys=True) + "\n"
            fh.write(self._lead + line.encode())
            self._cut, self._lead = None, b""


def read_cache(path) -> tuple[list, int]:
    """The ``(key, fingerprint, SampleRecord)`` of each line of a cache
    file, and the byte length of its whole lines, each with its newline.

    A run killed mid-append can leave a torn last line; an undecodable last
    line is skipped with a warning on stderr and does not count as whole.
    A last line that decodes is whole even without its newline; the
    length then counts that newline too, and so exceeds the file size by
    one.
    An undecodable line anywhere else, or any line that decodes to
    something other than a record, means the file is corrupt, and a
    directory at `path` is a configuration error.
    """
    if Path(path).is_dir():
        raise ConfigError(f"{path}: the cache path is a directory")
    lines = Path(path).read_bytes().splitlines(keepends=True)
    records, complete = [], 0
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                data = json.loads(line)
            except ValueError:
                if number < len(lines):
                    raise ConfigError(
                        f"{path}, line {number}: not a cache record")
                print(f"warning: {path}, line {number}: skipping a torn "
                      f"last line", file=sys.stderr)
                break
            try:
                key, fingerprint = data["key"], data["fingerprint"]
                record = SampleRecord.from_dict(data)
                if not (isinstance(key, str) and isinstance(fingerprint, str)):
                    raise TypeError("key and fingerprint must be strings")
            except (KeyError, TypeError, OverflowError):
                raise ConfigError(
                    f"{path}, line {number}: not a cache record") from None
            records.append((key, fingerprint, record))
        if line.endswith(b"\n"):
            complete += len(line)
        elif line.strip():
            complete += len(line) + 1
    return records, complete


def _arrays_digest(*arrays) -> str:
    """sha256 over the dtype, shape and bytes of each array in turn."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _sample_key(xi: np.ndarray, fingerprint: str) -> str:
    payload = np.ascontiguousarray(xi, dtype=np.float64).tobytes()
    return hashlib.sha256(payload + fingerprint.encode()).hexdigest()


def stability(space: MixedSpace, viscosity: np.ndarray,
              settings: SolverSettings, k: int, seed: int,
              start: FlowState | None = None,
              near: EigenResult | None = None) -> tuple[SteadyResult, EigenResult]:
    """Steady state and rightmost eigenpair for one viscosity field, its
    values at the quadrature points, (n_cells, 9): the one stability
    chain that every caller runs.  The steady solve is a chord iteration
    from `start` when one is given (see :func:`solve_steady`), and the
    eigenvalue is tracked from `near` when one is given (see
    :func:`rightmost`).

    Raises :class:`SolverError` or :class:`EigenError` on failure.
    """
    ops = build_operators(space, viscosity)
    steady = solve_steady(ops, settings, start)
    return steady, rightmost(build_problem(ops, steady), k=k, seed=seed,
                             near=near)


@dataclass(frozen=True)
class Nominal:
    """The steady state, its tangent and the rightmost eigenpair at the
    germ ``xi = 0``, from which every sample starts.  `tangent` holds the
    derivatives of the state along each germ component (see
    :func:`tangent`)."""

    state: FlowState
    eigen: EigenResult
    tangent: FlowState

    def start(self, xi: np.ndarray) -> FlowState:
        """The first-order prediction of the steady state at germ `xi`."""
        return FlowState(self.state.velocity + xi @ self.tangent.velocity,
                         self.state.pressure + xi @ self.tangent.pressure)


@dataclass
class Simulator:
    """Bound map from a germ sample to the rightmost eigenvalue.

    Holds everything the map depends on; ``fingerprint`` digests it all so
    cached results are only reused under the exact same setup.
    """

    space: MixedSpace
    model: ViscosityModel
    settings: SolverSettings = field(default_factory=SolverSettings)
    k: int = 24
    seed: int = 0
    label: str = ""
    cache: Optional[EvalCache] = field(default=None, init=False)

    def describe(self) -> dict:
        mesh = self.space.mesh
        xs, ys = mesh.xs, mesh.ys
        return {
            "algorithm": ALGORITHM,
            "label": self.label,
            "mesh": {
                "n_cells": int(mesh.n_cells),
                "n_vnodes": int(mesh.n_vnodes),
                "bbox": [float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])],
                "pressure": self.space.pressure,
                "n_u": int(self.space.n_u),
                "n_p": int(self.space.n_p),
            },
            "viscosity": self.model.describe(),
            # the counts above do not tell graded meshes or fields apart
            "sha256": _arrays_digest(xs, ys, mesh.cell_mask,
                                     self.model.coeffs),
            "solver": {
                "picard_steps": self.settings.picard_steps,
                "newton_steps": self.settings.newton_steps,
            },
            "eigen": {"k": self.k, "seed": self.seed},
        }

    @property
    def fingerprint(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def attach_cache(self, path) -> None:
        self.cache = EvalCache(path, self.fingerprint)

    @cached_property
    def nominal(self) -> Optional[Nominal]:
        """The cold chain at the germ ``xi = 0`` and the tangent of its
        steady state, on one set of operators, one pencil and one LU of
        its Newton Jacobian (the pencil's ``lhs``, which the tangent and
        the origin sweep share), computed on first use and kept as
        vectors only.  ``None`` when its steady solve fails, that
        Jacobian does not factor or its eigensolve fails: every sample
        then runs cold."""
        xi = np.zeros(self.model.dim)
        try:
            ops = build_operators(self.space, self.model.evaluate(xi))
            steady = solve_steady(ops, self.settings)
            problem = build_problem(ops, steady)
            lu = factor(problem.lhs)
            slope = tangent(ops, steady, lu, self.model.gradient(xi))
            eig = rightmost(problem, k=self.k, seed=self.seed, lu=lu)
        except (PositivityError, SolverError, EigenError):
            return None
        return Nominal(steady.state, eig, slope)

    def solve(self, xi) -> tuple[SteadyResult, EigenResult]:
        """:func:`stability` at germ `xi` under this simulator's mesh and
        settings, started from the prediction of :attr:`nominal`."""
        xi = np.asarray(xi, dtype=float).ravel()
        viscosity = self.model.evaluate(xi)
        start = near = None
        if self.nominal is not None:
            start, near = self.nominal.start(xi), self.nominal.eigen
        return stability(self.space, viscosity, self.settings,
                         self.k, self.seed, start, near)

    def compute(self, xi) -> SampleRecord:
        """Run the full chain for one sample; failures become records."""
        xi = np.asarray(xi, dtype=float).ravel()
        key = tuple(float(v) for v in xi)
        try:
            steady, eig = self.solve(xi)
        except PositivityError as exc:
            note = f"viscosity: {exc}"
        except SolverError as exc:
            note = f"steady solve: {exc}"
        except EigenError as exc:
            note = f"eigensolve: {exc}"
        else:
            trace = {"steady": steady.trace, "residual": steady.residual,
                     "eigen": {"method": eig.method, "k": eig.k,
                               "residual": eig.residual}}
            digest = hashlib.sha256(
                json.dumps(trace, sort_keys=True).encode()).hexdigest()[:16]
            lam = eig.eigenvalue
            return SampleRecord(key, float(lam.real), float(lam.imag), False,
                                "", digest)
        return SampleRecord(key, float("nan"), float("nan"), True, note)


# handed to forked pool workers through inherited memory; boundary profiles
# may be arbitrary callables, so the simulator is not required to pickle
_WORKER_SIM: Optional[Simulator] = None


def _worker_run(xi) -> SampleRecord:
    return _WORKER_SIM.compute(xi)


@dataclass(frozen=True)
class McResult:
    """Aligned records for a sample set; failed entries are NaN-valued."""

    records: tuple
    sample_hash: str

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def ok(self) -> np.ndarray:
        return np.array([not r.failed for r in self.records], dtype=bool)

    @property
    def n_failed(self) -> int:
        return int((~self.ok).sum())

    @property
    def lam_re(self) -> np.ndarray:
        return np.array([r.lam_re for r in self.records])

    def values(self) -> np.ndarray:
        """Real parts of the successful samples, in sample order."""
        return self.lam_re[self.ok]


def monte_carlo(simulator: Simulator, samples: SampleSet,
                workers: int = 1) -> McResult:
    """Evaluate the simulator on every sample.

    The uncached samples fan out over a fork pool with no more processes
    than `workers` or than there are such samples; with one process, or
    where the platform cannot fork, they run in this one.  Each record is
    stored in sample order as it arrives and cache writes stay in the
    parent, so the outcome does not depend on scheduling and a run
    stopped at one sample keeps the records of the samples before it.
    """
    if samples.dim != simulator.model.dim:
        raise ConfigError(
            f"sample dimension {samples.dim} does not match "
            f"viscosity model dimension {simulator.model.dim}")
    want = FAMILIES[simulator.model.basis.family]
    if samples.distribution != want:
        raise ConfigError(
            f"samples drawn from {samples.distribution!r} but the "
            f"viscosity basis expects {want!r}")

    cache = simulator.cache
    records: list[Optional[SampleRecord]] = [None] * samples.n
    if cache is not None:
        fingerprint = simulator.fingerprint
        keys = [_sample_key(xi, fingerprint) for xi in samples.xi]
        records = [cache.get(key) for key in keys]
    missing = [i for i, record in enumerate(records) if record is None]

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None
    workers = min(workers, len(missing)) if context is not None else 1
    global _WORKER_SIM
    _WORKER_SIM = simulator
    if workers > 1:
        simulator.nominal   # computed before the fork, so workers inherit it
    try:
        with (ProcessPoolExecutor(max_workers=workers, mp_context=context)
              if workers > 1 else nullcontext()) as pool:
            fresh = (pool.map(_worker_run, samples.xi[missing]) if pool
                     else map(simulator.compute, samples.xi[missing]))
            for i, record in zip(missing, fresh):
                records[i] = record
                if cache is not None:
                    cache.put(keys[i], record)
    finally:
        _WORKER_SIM = None

    return McResult(tuple(records), samples.content_hash())
