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
    assert (obstacle.lx_frac, obstacle.ly_frac) == (0.25, 0.25)
    assert obstacle.length == 8.0
    step = config_from_dict(minimal(benchmark="step"))
    assert step.nu1 == pytest.approx(4.5455e-3)
    assert (step.lx_frac, step.ly_frac) == (0.125, 0.25)
    assert step.length == 30.0
    assert obstacle.solver.picard_steps == 6
    assert obstacle.solver.newton_steps == 15
    assert obstacle.delta == -1e-2 and obstacle.k == 24


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
    with pytest.raises(ConfigError, match="not found"):
        load_config(CONFIG_DIR / "nonexistent.yaml")


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


@pytest.mark.parametrize("path", [("workers",), ("eigen", "shift")],
                         ids=["workers", "eigen.shift"])
def test_workers_is_not_a_config_key(path):
    # the worker count is a command-line setting (--workers) only, and the
    # eigensolve always inverts at the origin, so it has no target to set
    *sections, key = path
    data, resolved = minimal(), config_from_dict(minimal()).resolved()
    target = data
    for name in sections:
        target, resolved = target[name], resolved[name]
    target[key] = 0
    with pytest.raises(ConfigError, match=f"unknown .*: {key}$"):
        config_from_dict(data)
    assert key not in resolved
