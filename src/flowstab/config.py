"""Experiment configuration: schema, validation, and object builders.

A config file is a single YAML document.  Parsing is fail-closed: unknown
keys anywhere are rejected, types are checked, and every seed must be
spelled out so reruns are reproducible by construction.  Most numeric
settings default per benchmark; the resolved form (with every default
filled in) is what gets embedded into output files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError
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
_DEFAULT_CORR = {"obstacle": (0.25, 0.25), "step": (0.125, 0.25)}

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
    lx_frac: float
    ly_frac: float
    solver: SolverSettings
    k: int
    delta: float
    eigen_seed: int
    models: tuple
    stride: int
    nn_seed: int
    gp_sigma_l: float | None
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
                          "m": self.m, "p": self.p, "level": self.level,
                          "lx_frac": self.lx_frac, "ly_frac": self.ly_frac},
            "solver": {"picard_steps": self.solver.picard_steps,
                       "newton_steps": self.solver.newton_steps,
                       "rel_tol": self.solver.rel_tol,
                       "divergence_patience": self.solver.divergence_patience},
            "eigen": {"k": self.k, "delta": self.delta, "seed": self.eigen_seed},
            "surrogates": {"models": list(self.models), "stride": self.stride,
                           "nn_seed": self.nn_seed,
                           "gp_sigma_l": self.gp_sigma_l},
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
            if types is not None and not isinstance(value, types):
                raise ConfigError(
                    f"{name}.{key} has the wrong type "
                    f"({type(value).__name__})")
            out[key] = value
        else:
            out[key] = default
    return out


_REQUIRED = object()

_NUM = (int, float)


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
    if benchmark == "step" and mesh["stretch"] != 1.0:
        raise ConfigError("mesh.stretch only applies to the obstacle benchmark")

    corr = _DEFAULT_CORR[benchmark]
    visc = _section(data, "viscosity", {
        "nu1": (_NUM, _DEFAULT_NU1[benchmark]),
        "covs": ((list, tuple, int, float), _REQUIRED),
        "m": ((int,), _REQUIRED),
        "p": ((int,), 3),
        "level": ((int,), 4),
        "lx_frac": (_NUM, corr[0]),
        "ly_frac": (_NUM, corr[1]),
    })
    for key in ("covs", "m"):
        if visc[key] is _REQUIRED:
            raise ConfigError(f"viscosity.{key} is required")
    covs = visc["covs"]
    if isinstance(covs, _NUM):
        covs = [covs]
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
        "rel_tol": (_NUM, 1e-8),
        "divergence_patience": ((int,), 5),
    })
    solver = SolverSettings(solver_raw["picard_steps"],
                            solver_raw["newton_steps"],
                            float(solver_raw["rel_tol"]),
                            solver_raw["divergence_patience"])

    eigen = _section(data, "eigen", {
        "k": ((int,), 24),
        "delta": (_NUM, -1e-2),
        "seed": ((int,), _REQUIRED),
    })
    if eigen["seed"] is _REQUIRED:
        raise ConfigError("eigen.seed is required (all seeds are explicit)")

    sur = _section(data, "surrogates", {
        "models": ((list, tuple), list(SURROGATE_NAMES)),
        "stride": ((int,), 1),
        "nn_seed": ((int,), _REQUIRED),
        "gp_sigma_l": (_NUM, None),
    })
    models = tuple(sur["models"])
    bad = set(models) - set(SURROGATE_NAMES)
    if bad:
        raise ConfigError(f"unknown surrogate models: {', '.join(sorted(bad))}")
    if sur["nn_seed"] is _REQUIRED:
        if "nn" in models:
            raise ConfigError("surrogates.nn_seed is required")
        sur["nn_seed"] = 0
    if sur["stride"] < 1:
        raise ConfigError("surrogates.stride must be >= 1")

    assess = _section(data, "assess", {
        "n_mc": ((int,), _REQUIRED),
        "sample_seed": ((int,), _REQUIRED),
    })
    for key in ("n_mc", "sample_seed"):
        if assess[key] is _REQUIRED:
            raise ConfigError(f"assess.{key} is required")
    if assess["n_mc"] < 1:
        raise ConfigError("assess.n_mc must be >= 1")

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
        lx_frac=float(visc["lx_frac"]),
        ly_frac=float(visc["ly_frac"]),
        solver=solver,
        k=eigen["k"],
        delta=float(eigen["delta"]),
        eigen_seed=eigen["seed"],
        models=models,
        stride=sur["stride"],
        nn_seed=sur["nn_seed"],
        gp_sigma_l=None if sur["gp_sigma_l"] is None else float(sur["gp_sigma_l"]),
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
    if config.benchmark == "obstacle":
        return obstacle_mesh(config.refine, length=config.length,
                             stretch=config.stretch)
    return step_mesh(config.refine, outflow_length=config.length)


def build_space_for(config: ExperimentConfig, mesh: Mesh) -> MixedSpace:
    pressure = "q1" if config.benchmark == "obstacle" else "pm1"
    return build_space(mesh, pressure)


def build_kl(config: ExperimentConfig, mesh: Mesh) -> KlExpansion:
    xs, ys = mesh.xs, mesh.ys
    lx = config.lx_frac * float(xs[-1] - xs[0])
    ly = config.ly_frac * float(ys[-1] - ys[0])
    return kl_decompose(mesh, config.m, 1.0, lx, ly)


def build_model(config: ExperimentConfig, kl: KlExpansion,
                cov: float) -> ViscosityModel:
    if config.benchmark == "obstacle":
        return build_lognormal(config.nu1, cov, kl, config.m, config.p)
    return build_affine(config.nu1, cov, kl, config.m)


def build_simulator(config: ExperimentConfig, cov: float,
                    use_cache: bool = True,
                    mesh: Mesh | None = None,
                    space: MixedSpace | None = None,
                    kl: KlExpansion | None = None) -> Simulator:
    """Assemble the bound simulator for one CoV setting.

    Mesh, space and KL expansion can be passed in to share the (costly)
    deterministic setup across several CoV values.
    """
    mesh = build_mesh(config) if mesh is None else mesh
    space = build_space_for(config, mesh) if space is None else space
    kl = build_kl(config, mesh) if kl is None else kl
    model = build_model(config, kl, cov)
    sim = Simulator(mesh, space, model, settings=config.solver,
                    delta=config.delta, k=config.k, seed=config.eigen_seed,
                    label=f"{config.benchmark}-cov{cov:g}")
    if use_cache and config.cache is not None:
        sim.attach_cache(config.outdir / config.cache)
    return sim
