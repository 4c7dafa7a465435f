"""Experiment configuration: schema, validation, and object builders.

A config file is a single YAML document.  Parsing is fail-closed: unknown
keys anywhere are rejected, types and lower bounds are checked, and every
seed must be spelled out so reruns are reproducible by construction.  One
table, ``_SCHEMA``, states each setting's type, default and lowest value;
the resolved form (with every default filled in) is what gets embedded
into output files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError, GeometryError, RankDeficiencyError
from .meshes import Mesh, MixedSpace, build_space, obstacle_mesh, step_mesh
from .randomfield import KlExpansion, kl_decompose
from .simulate import Simulator, family_distribution
from .steady import SolverSettings
from .viscosity import ViscosityModel, build_affine, build_lognormal

BENCHMARKS = ("obstacle", "step")
SURROGATE_NAMES = ("sc", "gp", "nn")

#: per-benchmark basis family (germ distribution follows from it)
BENCHMARK_FAMILY = {"obstacle": "hermite", "step": "legendre"}

#: correlation lengths as fractions of domain width / height
_CORR = {"obstacle": (0.25, 0.25), "step": (0.125, 0.25)}

#: the defaults that depend on the benchmark
_BENCHMARK_DEFAULTS = {"obstacle": {"length": 8.0, "nu1": 5.36193e-3},
                       "step": {"length": 30.0, "nu1": 4.5455e-3}}


def cov_tag(cov: float) -> str:
    """Tag naming the output files of one CoV setting, e.g. ``cov10pct``."""
    return f"cov{100.0 * cov:g}pct"


_NUM = (int, float)

#: default of a key that every config sets
_REQUIRED = object()

#: default of a key whose default depends on the benchmark
_BY_BENCHMARK = object()

#: every setting: section -> key -> (types, default, lowest value or None)
_SCHEMA = {
    "mesh": {"refine": ((int,), 1, 1),
             "length": (_NUM, _BY_BENCHMARK, None),
             "stretch": (_NUM, 1.0, None)},
    "viscosity": {"nu1": (_NUM, _BY_BENCHMARK, None),
                  "covs": ((list, tuple, int, float), _REQUIRED, None),
                  "m": ((int,), _REQUIRED, 1),
                  "p": ((int,), 3, 0),
                  "level": ((int,), 4, 1)},
    "solver": {"picard_steps": ((int,), 6, 0),
               "newton_steps": ((int,), 15, 0)},
    "eigen": {"k": ((int,), 24, 1),
              "seed": ((int,), _REQUIRED, 0)},
    "surrogates": {"models": ((list, tuple), list(SURROGATE_NAMES), None),
                   "stride": ((int,), 1, 1),
                   "nn_seed": ((int,), 0, 0)},  # required when models lists nn
    "assess": {"n_mc": ((int,), _REQUIRED, 1),
               "sample_seed": ((int,), _REQUIRED, 0)},
    "paths": {"outdir": ((str,), "out", None),
              "cache": ((str, type(None)), "cache.jsonl", None)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    benchmark: str
    refine: int
    length: float            # obstacle channel length / step outflow length
    stretch: float           # obstacle grading toward the obstacle
    nu1: float
    covs: tuple
    m: int
    p: int
    level: int
    solver: SolverSettings
    k: int
    eigen_seed: int
    models: tuple
    stride: int
    nn_seed: int
    n_mc: int
    sample_seed: int
    outdir: Path
    cache: str | None

    @property
    def family(self) -> str:
        return BENCHMARK_FAMILY[self.benchmark]

    @property
    def distribution(self) -> str:
        return family_distribution(self.family)

    def resolved(self) -> dict:
        """Every setting but the paths made explicit, for embedding into
        outputs, in `_SCHEMA` order."""
        values = {**vars(self), **vars(self.solver), "seed": self.eigen_seed,
                  "covs": list(self.covs), "models": list(self.models)}
        return {"benchmark": self.benchmark,
                **{name: {key: values[key] for key in rows}
                   for name, rows in _SCHEMA.items() if name != "paths"}}


def _section(data: dict, name: str, defaults: dict) -> dict:
    """Section `name` of `data` checked against its `_SCHEMA` rows, every
    missing key set to its default (`defaults` holds the per-benchmark
    ones)."""
    raw = data.get(name)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    rows = _SCHEMA[name]
    unknown = set(raw) - set(rows)
    if unknown:
        raise ConfigError(
            f"unknown keys in {name!r}: {', '.join(sorted(unknown))}")
    out = {}
    for key, (types, default, low) in rows.items():
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"{name}.{key} is required")
            out[key] = defaults[key] if default is _BY_BENCHMARK else default
            continue
        value = out[key] = raw[key]
        # YAML reads yes/on/true as booleans, which are ints to Python
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(
                f"{name}.{key} has the wrong type ({type(value).__name__})")
        if low is not None and value < low:
            raise ConfigError(f"{name}.{key} must be >= {low}")
    return out


def _finite(value) -> bool:
    """Whether a config value is a finite number (booleans are not)."""
    return (isinstance(value, _NUM) and not isinstance(value, bool)
            and math.isfinite(value))


def config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(data) - {"benchmark", *_SCHEMA}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(sorted(unknown))}")

    benchmark = data.get("benchmark")
    if benchmark not in BENCHMARKS:
        raise ConfigError(f"benchmark must be one of {BENCHMARKS}, got {benchmark!r}")
    mesh, visc, solver, eigen, sur, assess, paths = (
        _section(data, name, _BENCHMARK_DEFAULTS[benchmark])
        for name in _SCHEMA)

    # the rules a schema row cannot state
    for key in ("length", "stretch"):
        if not _finite(mesh[key]):
            raise ConfigError(
                f"mesh.{key} must be a finite number, got {mesh[key]!r}")
    if benchmark == "step" and mesh["stretch"] != 1.0:
        raise ConfigError("mesh.stretch only applies to the obstacle benchmark")
    if not (_finite(visc["nu1"]) and visc["nu1"] > 0):
        raise ConfigError(
            f"viscosity.nu1 must be a finite number > 0, got {visc['nu1']!r}")
    covs = visc["covs"]
    if isinstance(covs, _NUM):
        covs = [covs]
    if not all(_finite(c) for c in covs):
        raise ConfigError(f"viscosity.covs must be finite numbers, got {covs!r}")
    covs = tuple(float(c) for c in covs)
    if not covs or any(c < 0 for c in covs):
        raise ConfigError("viscosity.covs needs at least one value >= 0")
    tags = [cov_tag(c) for c in covs]
    clashes = [f"{c!r} -> {t}" for c, t in zip(covs, tags) if tags.count(t) > 1]
    if clashes:
        raise ConfigError(
            f"viscosity.covs share output file tags: {', '.join(clashes)}")
    models = tuple(sur["models"])
    if not all(isinstance(name, str) for name in models):
        raise ConfigError(f"surrogates.models must list names, got {models!r}")
    bad = set(models) - set(SURROGATE_NAMES)
    if bad:
        raise ConfigError(f"unknown surrogate models: {', '.join(sorted(bad))}")
    if "nn" in models and "nn_seed" not in (data.get("surrogates") or {}):
        raise ConfigError("surrogates.nn_seed is required")
    outdir = Path(base_dir or ".") / paths["outdir"]
    if paths["cache"] is not None:
        # the cache file would take the place of the output directory or of
        # a directory above it
        where = Path(os.path.abspath(outdir / paths["cache"]))
        home = Path(os.path.abspath(outdir))
        if where == home or where in home.parents:
            raise ConfigError(
                f"paths.cache must name a file, got {paths['cache']!r}: that "
                f"is the output directory or a directory above it")

    return ExperimentConfig(
        benchmark=benchmark, refine=mesh["refine"],
        length=float(mesh["length"]), stretch=float(mesh["stretch"]),
        nu1=float(visc["nu1"]), covs=covs, m=visc["m"], p=visc["p"],
        level=visc["level"],
        solver=SolverSettings(solver["picard_steps"], solver["newton_steps"]),
        k=eigen["k"], eigen_seed=eigen["seed"],
        models=models, stride=sur["stride"], nn_seed=sur["nn_seed"],
        n_mc=assess["n_mc"], sample_seed=assess["sample_seed"],
        outdir=outdir, cache=paths["cache"])


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except IsADirectoryError:
        raise ConfigError(f"config file {path} is a directory")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}")
    return config_from_dict(data, base_dir=path.parent)


def build_mesh(config: ExperimentConfig) -> Mesh:
    """The benchmark mesh; settings it cannot be built from are a
    :class:`ConfigError` that names them."""
    try:
        if config.benchmark == "obstacle":
            return obstacle_mesh(config.refine, length=config.length,
                                 stretch=config.stretch)
        return step_mesh(config.refine, outflow_length=config.length)
    except GeometryError as exc:
        keys = ", ".join(f"mesh.{key} = {value!r}"
                         for key, value in config.resolved()["mesh"].items())
        raise ConfigError(f"{keys}: {exc}") from exc


def build_space_for(config: ExperimentConfig, mesh: Mesh) -> MixedSpace:
    pressure = "q1" if config.benchmark == "obstacle" else "pm1"
    return build_space(mesh, pressure)


def build_kl(config: ExperimentConfig, mesh: Mesh) -> KlExpansion:
    xs, ys = mesh.xs, mesh.ys
    fx, fy = _CORR[config.benchmark]
    lx = fx * float(xs[-1] - xs[0])
    ly = fy * float(ys[-1] - ys[0])
    try:
        return kl_decompose(mesh, config.m, 1.0, lx, ly)
    except RankDeficiencyError as exc:
        raise ConfigError(f"viscosity.m = {config.m}: {exc}") from exc


def build_model(config: ExperimentConfig, kl: KlExpansion,
                cov: float) -> ViscosityModel:
    if config.benchmark == "obstacle":
        return build_lognormal(config.nu1, cov, kl, config.m, config.p)
    return build_affine(config.nu1, cov, kl, config.m)


def build_simulator(config: ExperimentConfig, cov: float,
                    use_cache: bool = True) -> Simulator:
    """Assemble the bound simulator for one CoV setting.

    Each call builds its own mesh, space, KL expansion and viscosity
    model.  That setup takes under a second; the study the simulator then
    runs takes minutes to hours.
    """
    mesh = build_mesh(config)
    space = build_space_for(config, mesh)
    model = build_model(config, build_kl(config, mesh), cov)
    sim = Simulator(mesh, space, model, settings=config.solver,
                    k=config.k, seed=config.eigen_seed,
                    label=f"{config.benchmark}-cov{cov:g}")
    if use_cache and config.cache is not None:
        sim.attach_cache(config.outdir / config.cache)
    return sim
