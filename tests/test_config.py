"""Configuration schema: fail-closed parsing and object builders."""

import json
from pathlib import Path

import pytest
import yaml

from flowstab.config import (build_kl, build_mesh, build_model,
                             build_simulator, build_space_for,
                             config_from_dict, load_config)
from flowstab.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def minimal(**overrides):
    data = {
        "benchmark": "obstacle",
        "viscosity": {"covs": [0.01], "m": 2},
        "eigen": {"seed": 0},
        "surrogates": {"nn_seed": 0},
        "assess": {"n_mc": 10, "sample_seed": 1},
    }
    data.update(overrides)
    return data


def test_shipped_configs_parse():
    for name in ("obstacle_desk", "obstacle_full", "step_desk", "step_full"):
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        assert cfg.covs == (0.01, 0.10)
        assert cfg.m == 2 and cfg.p == 3 and cfg.level == 4
        assert cfg.models == ("sc", "gp", "nn")
        json.dumps(cfg.resolved())     # embeddable


def test_benchmark_implies_family():
    obstacle = config_from_dict(minimal())
    assert obstacle.family == "hermite"
    assert obstacle.distribution == "normal"
    step = config_from_dict(minimal(benchmark="step"))
    assert step.family == "legendre"
    assert step.distribution == "uniform"


def test_benchmark_defaults():
    obstacle = config_from_dict(minimal())
    assert obstacle.nu1 == pytest.approx(5.36193e-3)
    assert obstacle.length == 8.0
    # correlation lengths: a quarter of the 8 x 2 obstacle channel
    kl = build_kl(obstacle, build_mesh(obstacle))
    assert (kl.lx, kl.ly) == (0.25 * 8.0, 0.25 * 2.0)
    step = config_from_dict(minimal(benchmark="step"))
    assert step.nu1 == pytest.approx(4.5455e-3)
    assert step.length == 30.0
    # an eighth of the 31 x 2 step channel in x, a quarter in y
    kl = build_kl(step, build_mesh(step))
    assert (kl.lx, kl.ly) == (0.125 * 31.0, 0.25 * 2.0)
    assert obstacle.solver.picard_steps == 6
    assert obstacle.solver.newton_steps == 15
    assert obstacle.k == 24


def test_scalar_cov_promoted():
    cfg = config_from_dict(minimal(viscosity={"covs": 0.1, "m": 2}))
    assert cfg.covs == (0.1,)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="top-level"):
        config_from_dict(minimal(typo=1))
    with pytest.raises(ConfigError, match="unknown keys in 'viscosity'"):
        config_from_dict(minimal(
            viscosity={"covs": [0.1], "m": 2, "sigma": 1.0}))
    with pytest.raises(ConfigError, match="unknown keys in 'eigen'"):
        config_from_dict(minimal(eigen={"seed": 0, "ncv": 60}))


def test_missing_required_rejected():
    for broken in (
        minimal(viscosity={"m": 2}),                 # no covs
        minimal(viscosity={"covs": [0.1]}),          # no m
        minimal(eigen={}),                           # no eigen seed
        minimal(assess={"n_mc": 10}),                # no sample seed
        minimal(assess={"sample_seed": 1}),          # no n_mc
    ):
        with pytest.raises(ConfigError):
            config_from_dict(broken)
    # nn selected but nn_seed missing
    with pytest.raises(ConfigError, match="nn_seed"):
        config_from_dict(minimal(surrogates={"models": ["nn"]}))
    # without nn in the selection the seed is not needed
    cfg = config_from_dict(minimal(surrogates={"models": ["sc", "gp"]}))
    assert cfg.models == ("sc", "gp")


def test_type_and_value_errors():
    with pytest.raises(ConfigError, match="benchmark"):
        config_from_dict(minimal(benchmark="cavity"))
    with pytest.raises(ConfigError, match="wrong type"):
        config_from_dict(minimal(mesh={"refine": "fine"}))
    with pytest.raises(ConfigError, match=">= 0"):
        config_from_dict(minimal(viscosity={"covs": [-0.1], "m": 2}))
    # CoVs whose output files would overwrite each other
    with pytest.raises(ConfigError, match=r"0\.1 -> cov10pct, 0\.1000001 -> cov10pct"):
        config_from_dict(minimal(viscosity={"covs": [0.1, 0.1000001, 0.1], "m": 2}))
    with pytest.raises(ConfigError, match="stride"):
        config_from_dict(minimal(
            surrogates={"nn_seed": 0, "stride": 0}))
    with pytest.raises(ConfigError, match="workers"):
        config_from_dict(minimal(workers=0))
    with pytest.raises(ConfigError, match="stretch"):
        config_from_dict(minimal(benchmark="step", mesh={"stretch": 2.0}))
    with pytest.raises(ConfigError, match="surrogate models"):
        config_from_dict(minimal(surrogates={"models": ["svm"], "nn_seed": 0}))
    with pytest.raises(ConfigError, match="mapping"):
        config_from_dict(minimal(solver=[1, 2]))
    # YAML 1.1 reads yes/on as booleans, which Python counts as integers
    with pytest.raises(ConfigError, match=r"eigen\.seed has the wrong type"):
        config_from_dict(minimal(eigen={"seed": True}))
    with pytest.raises(ConfigError, match=r"eigen\.k has the wrong type"):
        config_from_dict(minimal(eigen={"seed": 0, "k": True}))
    with pytest.raises(ConfigError, match=r"viscosity\.m has the wrong type"):
        config_from_dict(minimal(viscosity={"covs": [0.1], "m": False}))
    with pytest.raises(ConfigError, match="not found"):
        load_config(CONFIG_DIR / "nonexistent.yaml")


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("section, values, match", [
    ("viscosity", {"covs": ["a"]}, "covs must be finite"),
    ("viscosity", {"covs": [_NAN]}, "covs must be finite"),
    ("viscosity", {"covs": [_INF]}, "covs must be finite"),
    ("viscosity", {"nu1": -1.0}, "nu1 must be a finite number > 0"),
    ("viscosity", {"nu1": _NAN}, "nu1 must be a finite number > 0"),
    ("viscosity", {"m": 0}, r"viscosity\.m must be >= 1"),
    ("viscosity", {"p": -1}, r"viscosity\.p must be >= 0"),
    ("viscosity", {"level": 0}, r"viscosity\.level must be >= 1"),
    ("eigen", {"k": 0}, r"eigen\.k must be >= 1"),
    ("eigen", {"k": -3}, r"eigen\.k must be >= 1"),
    ("solver", {"picard_steps": -1}, r"solver\.picard_steps must be >= 0"),
    ("solver", {"newton_steps": -1}, r"solver\.newton_steps must be >= 0"),
    ("surrogates", {"models": [["sc"]]}, "models must list names"),
    ("eigen", {"seed": -1}, r"eigen\.seed must be >= 0"),
    ("assess", {"sample_seed": -1}, r"assess\.sample_seed must be >= 0"),
    ("surrogates", {"nn_seed": -1}, r"surrogates\.nn_seed must be >= 0"),
], ids=["covs-str", "covs-nan", "covs-inf", "nu1-neg", "nu1-nan", "m-0",
        "p-neg", "level-0", "k-0", "k-neg", "picard-neg", "newton-neg",
        "models-nested", "eigen-seed-neg", "sample-seed-neg", "nn-seed-neg"])
def test_out_of_range_values_rejected(section, values, match):
    # out-of-range values are configuration errors (exit 2): not a
    # traceback, not a failure of every sample, and a negative step
    # budget is not read as zero
    data = minimal()
    data[section] = {**data.get(section, {}), **values}
    with pytest.raises(ConfigError, match=match):
        config_from_dict(data)


def test_invalid_yaml_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("benchmark: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(bad)
    notmap = tmp_path / "notmap.yaml"
    notmap.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(notmap)


def test_outdir_relative_to_config_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(minimal(paths={"outdir": "results"})))
    cfg = load_config(path)
    assert cfg.outdir == tmp_path / "results"


def test_builders_obstacle():
    cfg = config_from_dict(minimal())
    mesh = build_mesh(cfg)
    space = build_space_for(cfg, mesh)
    assert space.pressure == "q1"
    assert space.n_u == 2 * mesh.n_vnodes
    kl = build_kl(cfg, mesh)
    # correlation lengths are fractions of the domain extents
    assert kl.lx == pytest.approx(0.25 * 8.0)
    assert kl.ly == pytest.approx(0.25 * 2.0)
    model = build_model(cfg, kl, 0.01)
    assert model.kind == "lognormal"
    assert model.basis.family == "hermite"


def test_builders_step():
    cfg = config_from_dict(minimal(benchmark="step",
                                   mesh={"refine": 1}))
    mesh = build_mesh(cfg)
    space = build_space_for(cfg, mesh)
    assert space.pressure == "pm1"
    assert space.n_p == 3 * mesh.n_cells
    kl = build_kl(cfg, mesh)
    assert kl.lx == pytest.approx(0.125 * 31.0)
    assert kl.ly == pytest.approx(0.25 * 2.0)
    model = build_model(cfg, kl, 0.01)
    assert model.kind == "affine"
    assert model.basis.family == "legendre"


def test_simulator_fingerprint_stable(tmp_path):
    cfg = config_from_dict(minimal(), base_dir=tmp_path)
    a = build_simulator(cfg, 0.01, use_cache=False)
    b = build_simulator(cfg, 0.01, use_cache=False)
    assert a.fingerprint == b.fingerprint
    c = build_simulator(cfg, 0.10, use_cache=False)
    assert a.fingerprint != c.fingerprint


def test_simulator_cache_wiring(tmp_path):
    cfg = config_from_dict(minimal(paths={"outdir": "o", "cache": "c.jsonl"}),
                           base_dir=tmp_path)
    sim = build_simulator(cfg, 0.01)
    assert sim.cache is not None
    assert sim.cache.path == tmp_path / "o" / "c.jsonl"
    nocache = config_from_dict(minimal(paths={"cache": None}),
                               base_dir=tmp_path)
    assert build_simulator(nocache, 0.01).cache is None


_NOT_KEYS = ["workers", "eigen.shift", "viscosity.lx_frac",
             "viscosity.ly_frac", "solver.rel_tol",
             "solver.divergence_patience", "eigen.delta",
             "surrogates.gp_sigma_l"]


@pytest.mark.parametrize("path", [tuple(key.split(".")) for key in _NOT_KEYS],
                         ids=_NOT_KEYS)
def test_workers_is_not_a_config_key(path):
    # the worker count is a command-line setting (--workers) only; the
    # eigensolve always inverts at the origin, so it has no target to set;
    # correlation lengths, solver tolerances, the pencil regularization and
    # the GP length scale are fixed by the study, not by a config
    *sections, key = path
    data, resolved = minimal(), config_from_dict(minimal()).resolved()
    target = data
    for name in sections:
        target, resolved = target.setdefault(name, {}), resolved[name]
    target[key] = 0
    with pytest.raises(ConfigError, match=f"unknown .*: {key}$"):
        config_from_dict(data)
    assert key not in resolved
