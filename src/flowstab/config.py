"""Experiment configuration: schema, validation, and object builders.

A config file is a single YAML document.  Parsing is fail-closed: unknown
keys anywhere are rejected, types are checked, and every seed must be
spelled out so reruns are reproducible by construction.  Most numeric
settings default per benchmark; the resolved form (with every default
filled in) is what gets embedded into output files.
"""

from __future__ import annotations

import math
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

_DEFAULT_NU1 = {"obstacle": 5.36193e-3, "step": 4.5455e-3}


def cov_tag(cov: float) -> str:
    """Tag naming the output files of one CoV setting, e.g. ``cov10pct``."""
    return f"cov{100.0 * cov:g}pct"


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
        """Every setting made explicit, for embedding into outputs."""
        return {
            "benchmark": self.benchmark,
            "mesh": {"refine": self.refine, "length": self.length,
                     "stretch": self.stretch},
            "viscosity": {"nu1": self.nu1, "covs": list(self.covs),
                          "m": self.m, "p": self.p, "level": self.level},
            "solver": {"picard_steps": self.solver.picard_steps,
                       "newton_steps": self.solver.newton_steps},
            "eigen": {"k": self.k, "seed": self.eigen_seed},
            "surrogates": {"models": list(self.models), "stride": self.stride,
                           "nn_seed": self.nn_seed},
            "assess": {"n_mc": self.n_mc, "sample_seed": self.sample_seed},
        }


def _section(data: dict, name: str, allowed: dict) -> dict:
    """Pull one mapping section, rejecting unknown keys and bad types."""
    raw = data.get(name, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown keys in {name!r}: {', '.join(sorted(unknown))}")
    out = {}
    for key, (types, default) in allowed.items():
        if key in raw:
            value = raw[key]
            # YAML reads yes/on/true as booleans, which are ints to Python
            if types is not None and (isinstance(value, bool)
                                      or not isinstance(value, types)):
                raise ConfigError(
                    f"{name}.{key} has the wrong type "
                    f"({type(value).__name__})")
            out[key] = value
        else:
            out[key] = default
    return out


_REQUIRED = object()

_NUM = (int, float)


def _finite(value) -> bool:
    """Whether a config value is a finite number (booleans are not)."""
    return (isinstance(value, _NUM) and not isinstance(value, bool)
            and math.isfinite(value))


def _at_least(name: str, section: dict, bounds: dict) -> None:
    """Reject integer settings of section `name` below their lower bound."""
    for key, low in bounds.items():
        if section[key] < low:
            raise ConfigError(f"{name}.{key} must be >= {low}")


def config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    top_allowed = {"benchmark", "mesh", "viscosity", "solver", "eigen",
                   "surrogates", "assess", "paths"}
    unknown = set(data) - top_allowed
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(sorted(unknown))}")

    benchmark = data.get("benchmark")
    if benchmark not in BENCHMARKS:
        raise ConfigError(f"benchmark must be one of {BENCHMARKS}, got {benchmark!r}")

    default_length = 8.0 if benchmark == "obstacle" else 30.0
    mesh = _section(data, "mesh", {
        "refine": ((int,), 1),
        "length": (_NUM, default_length),
        "stretch": (_NUM, 1.0),
    })
    _at_least("mesh", mesh, {"refine": 1})
    for key in ("length", "stretch"):
        if not _finite(mesh[key]):
            raise ConfigError(
                f"mesh.{key} must be a finite number, got {mesh[key]!r}")
    if benchmark == "step" and mesh["stretch"] != 1.0:
        raise ConfigError("mesh.stretch only applies to the obstacle benchmark")

    visc = _section(data, "viscosity", {
        "nu1": (_NUM, _DEFAULT_NU1[benchmark]),
        "covs": ((list, tuple, int, float), _REQUIRED),
        "m": ((int,), _REQUIRED),
        "p": ((int,), 3),
        "level": ((int,), 4),
    })
    for key in ("covs", "m"):
        if visc[key] is _REQUIRED:
            raise ConfigError(f"viscosity.{key} is required")
    _at_least("viscosity", visc, {"m": 1, "p": 0, "level": 1})
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

    solver_raw = _section(data, "solver", {
        "picard_steps": ((int,), 6),
        "newton_steps": ((int,), 15),
    })
    _at_least("solver", solver_raw, {"picard_steps": 0, "newton_steps": 0})
    solver = SolverSettings(solver_raw["picard_steps"],
                            solver_raw["newton_steps"])

    eigen = _section(data, "eigen", {
        "k": ((int,), 24),
        "seed": ((int,), _REQUIRED),
    })
    if eigen["seed"] is _REQUIRED:
        raise ConfigError("eigen.seed is required (all seeds are explicit)")
    _at_least("eigen", eigen, {"k": 1, "seed": 0})

    sur = _section(data, "surrogates", {
        "models": ((list, tuple), list(SURROGATE_NAMES)),
        "stride": ((int,), 1),
        "nn_seed": ((int,), _REQUIRED),
    })
    models = tuple(sur["models"])
    if not all(isinstance(name, str) for name in models):
        raise ConfigError(f"surrogates.models must list names, got {models!r}")
    bad = set(models) - set(SURROGATE_NAMES)
    if bad:
        raise ConfigError(f"unknown surrogate models: {', '.join(sorted(bad))}")
    if sur["nn_seed"] is _REQUIRED:
        if "nn" in models:
            raise ConfigError("surrogates.nn_seed is required")
        sur["nn_seed"] = 0
    _at_least("surrogates", sur, {"stride": 1, "nn_seed": 0})

    assess = _section(data, "assess", {
        "n_mc": ((int,), _REQUIRED),
        "sample_seed": ((int,), _REQUIRED),
    })
    for key in ("n_mc", "sample_seed"):
        if assess[key] is _REQUIRED:
            raise ConfigError(f"assess.{key} is required")
    _at_least("assess", assess, {"n_mc": 1, "sample_seed": 0})

    paths = _section(data, "paths", {
        "outdir": ((str,), "out"),
        "cache": ((str, type(None)), "cache.jsonl"),
    })
    base = Path(base_dir) if base_dir is not None else Path(".")
    outdir = base / paths["outdir"]

    return ExperimentConfig(
        benchmark=benchmark,
        refine=mesh["refine"],
        length=float(mesh["length"]),
        stretch=float(mesh["stretch"]),
        nu1=float(visc["nu1"]),
        covs=covs,
        m=visc["m"],
        p=visc["p"],
        level=visc["level"],
        solver=solver,
        k=eigen["k"],
        eigen_seed=eigen["seed"],
        models=models,
        stride=sur["stride"],
        nn_seed=sur["nn_seed"],
        n_mc=assess["n_mc"],
        sample_seed=assess["sample_seed"],
        outdir=outdir,
        cache=paths["cache"],
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
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
