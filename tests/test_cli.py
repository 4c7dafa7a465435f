"""Command-line interface: subcommands, exit codes, reproducible outputs.

Runs everything in-process through ``main(argv)`` on a coarse obstacle
setup small enough that a full train/assess cycle stays in seconds.
"""

import argparse
import csv
import json
import math
import re

import numpy as np
import pytest
import yaml

from conftest import CONFIGS
from flowstab import simulate
from flowstab.cli import _resolve_workers, main, surrogate_path
from flowstab.config import build_simulator, cov_tag, load_config
from flowstab.errors import ConvergenceError, EigenError
from flowstab.surrogates import FIT

pytestmark = pytest.mark.slow


def write_config(path, **overrides):
    data = {
        "benchmark": "obstacle",
        "mesh": {"refine": 1},
        "viscosity": {"covs": [0.05], "m": 2, "level": 2},
        "eigen": {"seed": 0},
        "surrogates": {"models": ["sc", "gp", "nn"], "nn_seed": 0},
        "assess": {"n_mc": 6, "sample_seed": 7},
        "paths": {"outdir": "out", "cache": "cache.jsonl"},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    path.write_text(yaml.safe_dump(data))
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def config_path(workdir):
    return write_config(workdir / "exp.yaml")


def test_solve_writes_state_and_eigenvalue(config_path, workdir, capsys):
    assert main(["solve", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "rightmost eigenvalue" in out
    payload = json.loads((workdir / "out" / "solve.json").read_text())
    assert payload["eigenvalue"]["re"] < 0.0
    assert payload["steady"]["residual"] <= 1e-8 * payload["steady"]["reference"]
    assert payload["config"]["benchmark"] == "obstacle"
    assert payload["config"]["assess"]["sample_seed"] == 7
    assert payload["xi"] == [0.0, 0.0]
    velocity = np.load(workdir / "out" / "velocity.npy")
    assert velocity.size == 2192


def test_solve_rerun_byte_identical(config_path, workdir):
    target = workdir / "out" / "solve.json"
    first = target.read_bytes()
    vel_first = (workdir / "out" / "velocity.npy").read_bytes()
    assert main(["solve", "--config", str(config_path)]) == 0
    assert target.read_bytes() == first
    assert (workdir / "out" / "velocity.npy").read_bytes() == vel_first


def test_solve_at_explicit_sample(config_path, workdir):
    assert main(["solve", "--config", str(config_path),
                 "--xi", "0.5,-0.5"]) == 0
    payload = json.loads((workdir / "out" / "solve.json").read_text())
    assert payload["xi"] == [0.5, -0.5]
    # restore the origin-sample outputs for the other tests
    assert main(["solve", "--config", str(config_path)]) == 0


def test_solve_runs_the_cold_chain_once(workdir, monkeypatch):
    path = write_config(workdir / "cold.yaml",
                        paths={"outdir": "out_cold", "cache": None})
    starts, nears = [], []
    solve_steady, rightmost = simulate.solve_steady, simulate.rightmost

    def steady(ops, settings=None, start=None):
        starts.append(start)
        return solve_steady(ops, settings, start)

    def eigen(problem, k=24, seed=0, near=None):
        nears.append(near)
        return rightmost(problem, k, seed, near)

    monkeypatch.setattr(simulate, "solve_steady", steady)
    monkeypatch.setattr(simulate, "rightmost", eigen)
    assert main(["solve", "--config", str(path), "--xi", "0.5,-0.5"]) == 0
    # no nominal solve, no warm start, no tracking
    assert starts == [None] and nears == [None]
    payload = json.loads((workdir / "out_cold" / "solve.json").read_text())
    assert payload["method"] == "arnoldi"
    monkeypatch.setattr(simulate, "solve_steady", solve_steady)
    monkeypatch.setattr(simulate, "rightmost", rightmost)
    sim = build_simulator(load_config(path), 0.05, use_cache=False)
    lam = simulate.stability(sim.space,
                             sim.model.evaluate(np.array([0.5, -0.5])),
                             sim.settings, sim.k, sim.seed)[1].eigenvalue
    assert payload["eigenvalue"] == {"re": lam.real, "im": lam.imag}


def test_solve_bad_xi_is_config_error(config_path):
    assert main(["solve", "--config", str(config_path), "--xi", "1,2,3"]) == 2
    assert main(["solve", "--config", str(config_path), "--xi", "a,b"]) == 2
    assert main(["solve", "--config", str(config_path), "--xi", "nan,0"]) == 2


def test_spectrum_outputs(workdir, capsys):
    path = write_config(workdir / "spec2.yaml",
                        eigen={"seed": 0, "k": 2},
                        paths={"outdir": "out_spec", "cache": None})
    assert main(["spectrum", "--config", str(path)]) == 0
    with (workdir / "out_spec" / "spectrum.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "im", "role"]
    roles = [r[2] for r in rows[1:]]
    assert roles.count("rightmost") == 1
    assert len(roles) >= 2
    payload = json.loads((workdir / "out_spec" / "spectrum.json").read_text())
    assert payload["rightmost"]["re"] == pytest.approx(-0.2321969, abs=1e-4)


@pytest.mark.parametrize("name, rightmost", [
    ("obstacle_desk", "-2.321969e-01"), ("step_desk", "-4.614216e-04")],
    ids=["obstacle_desk", "step_desk"])
def test_spectrum_of_the_desk_configs(workdir, capsys, name, rightmost):
    # the deterministic reference values of the shipped desk configurations
    data = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    data["paths"] = {"outdir": f"out_{name}", "cache": None}
    path = workdir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["spectrum", "--config", str(path)]) == 0
    # a real eigenvalue reads +0.0i, never -0.0i
    assert (f"rightmost: {rightmost} +0.000000e+00i"
            in capsys.readouterr().out)
    payload = json.loads((workdir / f"out_{name}" / "spectrum.json").read_text())
    assert math.copysign(1.0, payload["rightmost"]["im"]) == 1.0
    with (workdir / f"out_{name}" / "spectrum.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert not [r for r in rows[1:] if r[1].startswith("-0.0")]
    # the next Ritz values to the right come with it
    assert [r[2] for r in rows[1:]].count("candidate") >= 3


def test_missing_config_file_exit_2(workdir):
    assert main(["solve", "--config", str(workdir / "missing.yaml")]) == 2


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_exit_2(workdir, capsys, kind):
    path = workdir / f"unreadable_{kind}.yaml"
    if kind == "directory":
        path.mkdir(exist_ok=True)
    else:
        path.write_bytes(b"benchmark: obstacle\n# \xff\xfe\n")
    assert main(["solve", "--config", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_invalid_config_exit_2(workdir):
    bad = workdir / "bad.yaml"
    bad.write_text("benchmark: obstacle\nviscosity: {covs: [0.1]}\n")
    assert main(["train", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command", [["train"], ["cache", "inspect"]],
                         ids=["train", "cache-inspect"])
def test_cache_that_names_the_outdir_exit_2(workdir, capsys, command):
    # a cache path of "." would be written as a file named like the outdir
    path = write_config(workdir / "dotcache.yaml",
                        paths={"outdir": "out_dotcache", "cache": "."})
    argv = [command[0], "--config", str(path), *command[1:]]
    assert main(argv) == 2
    assert "paths.cache must name a file" in capsys.readouterr().err
    assert not (workdir / "out_dotcache").exists()


def test_cache_above_the_outdir_exit_2_before_any_solve(workdir, capsys,
                                                         monkeypatch):
    # "../o2" names the output directory "o2" itself
    monkeypatch.setattr(simulate, "stability", None)
    path = write_config(workdir / "upcache.yaml",
                        paths={"outdir": "o2", "cache": "../o2"})
    assert main(["train", "--config", str(path)]) == 2
    assert "that is the output directory" in capsys.readouterr().err
    assert not (workdir / "o2").exists()


@pytest.mark.parametrize("command", [["train"], ["cache", "inspect"],
                                     ["cache", "clear"]],
                         ids=["train", "cache-inspect", "cache-clear"])
def test_cache_that_is_a_directory_exit_2(workdir, capsys, monkeypatch,
                                          command):
    monkeypatch.setattr(simulate, "stability", None)
    (workdir / "o3" / "sub").mkdir(parents=True, exist_ok=True)
    path = write_config(workdir / "dircache.yaml",
                        paths={"outdir": "o3", "cache": "sub"})
    argv = [command[0], "--config", str(path), *command[1:]]
    assert main(argv) == 2
    assert "the cache path is a directory" in capsys.readouterr().err
    assert (workdir / "o3" / "sub").is_dir()


@pytest.mark.parametrize("command", ["solve", "spectrum", "train", "assess"])
def test_outdir_that_is_a_file_exit_2_before_any_solve(workdir, capsys,
                                                       monkeypatch, command):
    import flowstab.cli as cli

    monkeypatch.setattr(simulate, "stability", None)
    monkeypatch.setattr(cli, "stability", None)
    (workdir / "o4").write_text("not a directory\n")
    path = write_config(workdir / "fileout.yaml",
                        paths={"outdir": "o4", "cache": "cache.jsonl"})
    assert main([command, "--config", str(path)]) == 2
    assert f"{workdir / 'o4'} (File exists)" in capsys.readouterr().err
    assert (workdir / "o4").read_text() == "not a directory\n"


@pytest.mark.parametrize("command, name", [
    ("train", "surrogate_nn_{tag}.json"),
    ("assess", "surrogate_nn_{tag}.json"),
    ("assess", "report_{tag}.json"),
    ("assess", "kde_{tag}.csv"),
    ("assess", "metrics.csv"),
    ("solve", "solve.json"),
    ("solve", "velocity.npy"),
    ("solve", "pressure.npy"),
    ("solve", "solve_trace.json"),
    ("spectrum", "spectrum.csv"),
    ("spectrum", "spectrum.json"),
], ids=["train", "assess", "assess-report", "assess-kde", "assess-metrics",
        "solve-json", "solve-velocity", "solve-pressure", "solve-trace",
        "spectrum-csv", "spectrum-json"])
def test_surrogate_path_that_is_a_directory_exit_2(tmp_path, capsys,
                                                   monkeypatch, command, name):
    import flowstab.cli as cli

    monkeypatch.setattr(simulate, "stability", None)
    monkeypatch.setattr(cli, "stability", None)
    path = write_config(tmp_path / "dirout.yaml",
                        viscosity={"covs": [0.05, 0.1]},
                        paths={"outdir": "o5", "cache": None})
    # of the last CoV, so every solve before it would come first
    target = load_config(path).outdir / name.format(tag=cov_tag(0.1))
    target.mkdir(parents=True)
    assert main([command, "--config", str(path)]) == 2
    assert f"{target}: the output path is a directory" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", [["solve"], ["spectrum"],
                                     ["cache", "inspect"]],
                         ids=["solve", "spectrum", "cache"])
def test_workers_is_an_option_of_train_and_assess_only(config_path, capsys,
                                                       command):
    with pytest.raises(SystemExit) as done:
        main([*command, "--config", str(config_path), "--workers", "7"])
    assert done.value.code == 2
    assert "unrecognized arguments: --workers 7" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["train", "assess"])
def test_workers_below_one_exit_2(workdir, capsys, monkeypatch, command,
                                  workers):
    monkeypatch.setattr(simulate, "stability", None)
    path = write_config(workdir / "noworkers.yaml",
                        paths={"outdir": "o6", "cache": "cache.jsonl"})
    assert main([command, "--config", str(path), "--workers", workers]) == 2
    assert f"--workers must be >= 1, got {workers}" in (
        capsys.readouterr().err)
    assert not (workdir / "o6").exists()


@pytest.mark.parametrize("name, section, values, match", [
    ("obstacle_desk", "mesh", {"refine": 0}, r"mesh\.refine must be >= 1"),
    ("obstacle_desk", "mesh", {"length": -1.0}, r"mesh\.length = -1\.0"),
    ("obstacle_desk", "mesh", {"stretch": 0.0}, r"mesh\.stretch = 0\.0"),
    ("obstacle_desk", "mesh", {"length": float("nan")},
     r"mesh\.length must be a finite number"),
    ("obstacle_desk", "viscosity", {"m": 500}, r"viscosity\.m = 500"),
    ("step_desk", "mesh", {"length": -3.0}, r"mesh\.length = -3\.0"),
    ("obstacle_desk", "mesh", {"length": 1.0e+308},
     r"mesh\.length = 1e\+308,.*finite cell count"),
    ("step_desk", "mesh", {"length": 1.0e+308},
     r"mesh\.length = 1e\+308,.*finite cell count"),
    ("obstacle_desk", "eigen", {"seed": -1}, r"eigen\.seed must be >= 0"),
    ("obstacle_desk", "eigen", {"k": True}, r"eigen\.k has the wrong type"),
    ("obstacle_desk", "surrogates", {"models": ["gp"], "stride": 30},
     r"stride = 30 leaves 1 of 29 design nodes; gp needs 2"),
    ("obstacle_desk", "surrogates", {"models": ["nn"], "stride": 10},
     r"stride = 10 leaves 3 of 29 design nodes; nn needs 4"),
], ids=["refine-0", "length-neg", "stretch-0", "length-nan", "m-500",
        "step-length-neg", "length-huge", "step-length-huge", "seed-neg",
        "k-bool", "stride-gp", "stride-nn"])
def test_mesh_and_mode_ranges_exit_2(workdir, capsys, monkeypatch, name,
                                     section, values, match):
    # caught before any solve, whether by the schema, by the builders or
    # by the design-size check of `train`
    import flowstab.cli as cli

    def solve(*args, **kwargs):
        raise AssertionError("the simulator ran before the check")

    monkeypatch.setattr(cli, "monte_carlo", solve)
    data = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    data[section].update(values)
    path = workdir / f"range_{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["train", "--config", str(path)]) == 2
    assert re.search(match, capsys.readouterr().err)


def test_nonconvergence_exit_3_with_trace(workdir, capsys, monkeypatch):
    # viscosity three orders too small: the steady iteration cannot settle
    path = write_config(workdir / "hard.yaml",
                        viscosity={"nu1": 5.0e-6, "covs": [0.01], "m": 2},
                        solver={"picard_steps": 2, "newton_steps": 2},
                        paths={"outdir": "out_hard", "cache": None})
    original = simulate.solve_steady
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(simulate, "solve_steady", counted)
    assert main(["solve", "--config", str(path)]) == 3
    # `solve` runs the cold chain once, with no nominal solve before it
    assert len(calls) == 1
    trace = json.loads((workdir / "out_hard" / "solve_trace.json").read_text())
    assert trace["trace"], "residual history should be recorded"
    # the trace is the cold chain's
    monkeypatch.setattr(simulate, "solve_steady", original)
    sim = build_simulator(load_config(path), 0.01, use_cache=False)
    with pytest.raises(ConvergenceError) as failure:
        simulate.stability(sim.space,
                           sim.model.evaluate(np.zeros(2)), sim.settings,
                           sim.k, sim.seed)
    assert trace["error"] == str(failure.value)
    assert trace["trace"] == json.loads(json.dumps(failure.value.trace))


def test_solve_leaves_only_its_own_outputs(workdir, monkeypatch):
    # solve, fail the steady solve (exit 3), solve, fail the eigensolve
    # (exit 4): no run leaves an earlier run's files beside its own
    paths = {"outdir": "out_stale", "cache": None}
    ok = write_config(workdir / "stale.yaml", paths=paths)
    no_steps = write_config(workdir / "stale_steps.yaml", paths=paths,
                            solver={"picard_steps": 0, "newton_steps": 0})
    outdir = workdir / "out_stale"
    results = {"solve.json", "velocity.npy", "pressure.npy"}

    def written():
        return {path.name for path in outdir.iterdir()}

    assert main(["solve", "--config", str(ok)]) == 0
    assert written() == results
    assert main(["solve", "--config", str(no_steps)]) == 3
    assert written() == {"solve_trace.json"}
    assert main(["solve", "--config", str(ok)]) == 0
    assert written() == results

    def failing(*args, **kwargs):
        raise EigenError("no eigenvalue")

    monkeypatch.setattr(simulate, "rightmost", failing)
    assert main(["solve", "--config", str(ok)]) == 4
    assert written() == set()


@pytest.mark.parametrize("affinity, expected", [({0}, 1), (None, 2)])
def test_default_workers_count_the_cpus_this_process_may_use(
        monkeypatch, affinity, expected):
    # as under taskset -c 0 on a 2-CPU host: the affinity set counts, and
    # os.cpu_count() only where os.sched_getaffinity does not exist
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    if affinity is None:
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: affinity,
                            raising=False)
    assert _resolve_workers(argparse.Namespace(workers=None)) == expected
    assert _resolve_workers(argparse.Namespace(workers=3)) == 3


def test_train_writes_surrogates(config_path, workdir, capsys):
    assert main(["train", "--config", str(config_path),
                 "--workers", "1"]) == 0
    cfg = load_config(config_path)
    for name in ("sc", "gp", "nn"):
        doc = json.loads(surrogate_path(cfg, name, 0.05).read_text())
        assert doc["kind"] == name
        assert doc["provenance"]["cov"] == 0.05
        assert doc["provenance"]["config"]["benchmark"] == "obstacle"
        assert doc["provenance"]["design"]["n_nodes"] == 5
    out = capsys.readouterr().out
    assert "[train]" in out


def test_retrain_identical_files(config_path, workdir):
    cfg = load_config(config_path)
    before = {n: surrogate_path(cfg, n, 0.05).read_bytes()
              for n in ("sc", "gp", "nn")}
    assert main(["train", "--config", str(config_path)]) == 0
    for name, blob in before.items():
        assert surrogate_path(cfg, name, 0.05).read_bytes() == blob


def test_gp_only_selection(workdir):
    path = write_config(workdir / "gponly.yaml",
                        surrogates={"models": ["gp"]},
                        paths={"outdir": "out_gp", "cache": "c.jsonl"})
    assert main(["train", "--config", str(path)]) == 0
    cfg = load_config(path)
    assert surrogate_path(cfg, "gp", 0.05).exists()
    assert not surrogate_path(cfg, "nn", 0.05).exists()
    assert not surrogate_path(cfg, "sc", 0.05).exists()


def test_assess_emits_tables(config_path, workdir, capsys):
    assert main(["assess", "--config", str(config_path)]) == 0
    out = workdir / "out"
    report = json.loads((out / "report_cov5pct.json").read_text())
    assert report["n_samples"] + report["n_failed"] == 6
    assert set(report["columns"]) == {"mc", "sc", "gp", "nn"}
    assert report["provenance"]["config"]["assess"]["n_mc"] == 6

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "# cov5pct"
    assert lines[1].split(",")[0] == "metric"
    assert [line.split(",")[0] for line in lines[2:6]] == \
        ["rmse", "mu", "sigma", "pr"]

    kde_rows = (out / "kde_cov5pct.csv").read_text().splitlines()
    assert kde_rows[0] == "abscissa,mc,sc,gp,nn"


def test_assess_rerun_byte_identical(config_path, workdir):
    out = workdir / "out"
    before = {p.name: p.read_bytes()
              for p in out.glob("report_*.json")}
    before["metrics.csv"] = (out / "metrics.csv").read_bytes()
    assert main(["assess", "--config", str(config_path)]) == 0
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob


def test_assess_without_cache_matches(config_path, workdir):
    # same seeds, no cache: byte-identical reports
    nocache = write_config(workdir / "nocache.yaml",
                           paths={"outdir": "out_nc", "cache": None})
    assert main(["assess", "--config", str(nocache)]) == 0
    cached = json.loads(
        (workdir / "out" / "report_cov5pct.json").read_text())
    fresh = json.loads(
        (workdir / "out_nc" / "report_cov5pct.json").read_text())
    cached["provenance"], fresh["provenance"] = None, None
    assert cached == fresh


def test_assess_mc_only(workdir):
    path = write_config(workdir / "mconly.yaml",
                        surrogates={"models": []},
                        paths={"outdir": "out_mc", "cache": None})
    assert main(["assess", "--config", str(path)]) == 0
    report = json.loads(
        (workdir / "out_mc" / "report_cov5pct.json").read_text())
    assert list(report["columns"]) == ["mc"]


def test_cov_list_gives_two_blocks(workdir):
    path = write_config(workdir / "twocov.yaml",
                        viscosity={"covs": [0.01, 0.05], "m": 2, "level": 2},
                        assess={"n_mc": 4, "sample_seed": 7},
                        surrogates={"models": ["sc"], "nn_seed": 0},
                        paths={"outdir": "out_2c", "cache": "c.jsonl"})
    assert main(["assess", "--config", str(path)]) == 0
    text = (workdir / "out_2c" / "metrics.csv").read_text()
    assert "# cov1pct" in text and "# cov5pct" in text
    assert (workdir / "out_2c" / "kde_cov1pct.csv").exists()
    assert (workdir / "out_2c" / "kde_cov5pct.csv").exists()


def test_cache_inspect_and_clear(workdir, capsys):
    path = write_config(workdir / "inspect.yaml", surrogates={"models": ["sc"]},
                        paths={"outdir": "out_inspect", "cache": "cache.jsonl"})
    assert main(["train", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["cache", "--config", str(path), "inspect"]) == 0
    out = capsys.readouterr().out
    assert "0 failed, 1 distinct configurations" in out
    assert main(["cache", "--config", str(path), "clear"]) == 0
    assert not (workdir / "out_inspect" / "cache.jsonl").exists()
    assert main(["cache", "--config", str(path), "inspect"]) == 0
    assert "no cache" in capsys.readouterr().out


def test_truncated_surrogate_is_config_error(workdir, capsys):
    path = write_config(workdir / "gpbad.yaml",
                        surrogates={"models": ["gp"]},
                        paths={"outdir": "out_gpbad", "cache": None})
    target = surrogate_path(load_config(path), "gp", 0.05)
    target.parent.mkdir(parents=True)
    target.write_text('{"format": "flowstab-surrogate", "kind": "gp", "par')
    assert main(["assess", "--config", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_surrogate_of_the_wrong_shape_is_config_error(workdir, capsys):
    path = write_config(workdir / "scbad.yaml", surrogates={"models": ["sc"]},
                        paths={"outdir": "out_scbad", "cache": None})
    assert main(["train", "--config", str(path)]) == 0
    target = surrogate_path(load_config(path), "sc", 0.05)
    doc = json.loads(target.read_text())
    doc["params"]["coeffs"] = doc["params"]["coeffs"][:3]
    target.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["assess", "--config", str(path)]) == 2
    assert "coeffs has shape (3,)" in capsys.readouterr().err


@pytest.mark.parametrize("name,model,field,value", [
    ("scstr", "sc", "coeffs", "a"),
    ("gpstr", "gp", "sigma_l", "0.5"),
    ("gpnull", "gp", "scaler", None),
])
def test_surrogate_of_non_numbers_is_config_error(workdir, capsys, name, model,
                                                  field, value):
    # current provenance, right shapes, but values that are not numbers
    path = write_config(workdir / f"{name}.yaml", surrogates={"models": [model]},
                        paths={"outdir": f"out_{name}", "cache": None})
    assert main(["train", "--config", str(path)]) == 0
    target = surrogate_path(load_config(path), model, 0.05)
    doc = json.loads(target.read_text())
    if field == "scaler":
        doc["scaler"][0] = value
    elif isinstance(doc["params"][field], list):
        doc["params"][field] = [value] * len(doc["params"][field])
    else:
        doc["params"][field] = value
    target.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["assess", "--config", str(path)]) == 2
    assert f"{field} holds non-numbers" in capsys.readouterr().err


def test_surrogate_of_another_germ_dimension_is_config_error(workdir, capsys):
    # inputs cut to one column still agree with alpha, but not with m = 2
    path = write_config(workdir / "gpdim.yaml", surrogates={"models": ["gp"]},
                        paths={"outdir": "out_gpdim", "cache": None})
    assert main(["train", "--config", str(path)]) == 0
    target = surrogate_path(load_config(path), "gp", 0.05)
    doc = json.loads(target.read_text())
    doc["params"]["inputs"] = [row[:1] for row in doc["params"]["inputs"]]
    target.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["assess", "--config", str(path)]) == 2
    assert "inputs has shape" in capsys.readouterr().err


def test_cache_inspect_torn_tail(workdir, capsys):
    path = write_config(workdir / "torn.yaml",
                        paths={"outdir": "out_torn", "cache": "c.jsonl"})
    cache = workdir / "out_torn" / "c.jsonl"
    cache.parent.mkdir(parents=True)
    whole = json.dumps({"key": "k", "fingerprint": "fp", "xi": [0.0, 0.0],
                        "lam_re": -1.0, "lam_im": 0.0, "failed": False})
    cache.write_text(whole + "\n" + whole[:30])
    assert main(["cache", "--config", str(path), "inspect"]) == 0
    captured = capsys.readouterr()
    assert "1 records, 0 failed" in captured.out
    assert "torn last line" in captured.err


def write_cache(path, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def cache_record(key, failed=False, note=""):
    return {"key": key, "fingerprint": "fp", "xi": [0.0, 0.0],
            "lam_re": float("nan") if failed else -1.0, "lam_im": 0.0,
            "failed": failed, "note": note}


@pytest.mark.parametrize("line", [
    "123", '{"a": 1}',
    '{"xi": [0.0, 0.0], "lam_re": 0.0, "lam_im": 0.0, "failed": false}'])
def test_cache_inspect_rejects_non_record_line(workdir, capsys, line):
    path = write_config(workdir / "nonrecord.yaml",
                        paths={"outdir": "out_nonrecord", "cache": "c.jsonl"})
    cache = workdir / "out_nonrecord" / "c.jsonl"
    write_cache(cache, [cache_record("k1")])
    cache.write_text(cache.read_text() + line + "\n")
    assert main(["cache", "--config", str(path), "inspect"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "line 2: not a cache record" in err


def test_cache_inspect_groups_failures_by_reason(workdir, capsys):
    path = write_config(workdir / "reasons.yaml",
                        paths={"outdir": "out_reasons", "cache": "c.jsonl"})
    write_cache(workdir / "out_reasons" / "c.jsonl", [
        cache_record("k1"),
        cache_record("k2", True, "steady solve: residual above target"),
        cache_record("k3", True, "viscosity: negative at 3 points"),
        cache_record("k4", True, "steady solve: Newton phase diverged"),
    ])
    assert main(["cache", "--config", str(path), "inspect"]) == 0
    out = capsys.readouterr().out
    assert "4 records, 3 failed, 1 distinct configurations" in out
    assert "  failed (steady solve): 2" in out
    assert "  failed (viscosity): 1" in out
    assert "eigensolve" not in out


def test_train_names_why_design_nodes_failed(workdir, capsys):
    # CoV 8 drives the affine viscosity negative at 3 of the 5 nodes
    path = write_config(workdir / "negative_train.yaml", benchmark="step",
                        viscosity={"covs": [8.0], "m": 2, "p": 1, "level": 2},
                        surrogates={"models": ["sc"]},
                        paths={"outdir": "out_negative_train", "cache": None})
    assert main(["train", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "3 design-node solves failed" in err
    assert "viscosity: 3" in err


def test_assess_with_every_sample_failed_is_a_solver_failure(workdir, capsys):
    # CoV 8 drives the affine viscosity negative at both germs: the config
    # is valid, the samples fail
    path = write_config(workdir / "negative.yaml", benchmark="step",
                        viscosity={"covs": [8.0], "m": 2, "p": 1, "level": 1},
                        surrogates={"models": ["sc"]},
                        assess={"n_mc": 2, "sample_seed": 1},
                        paths={"outdir": "out_negative", "cache": None})
    assert main(["assess", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "solver failure: all 2 Monte Carlo samples" in err
    assert "(viscosity: 2)" in err
    assert not (workdir / "out_negative" / "metrics.csv").exists()


def test_assess_retrains_stale_surrogates(workdir):
    # editing the mean viscosity after `train` must not score the old
    # surrogates: `assess` retrains and matches a run from scratch
    stale = write_config(workdir / "stale.yaml",
                         surrogates={"models": ["sc", "gp"]},
                         assess={"n_mc": 4, "sample_seed": 7},
                         paths={"outdir": "out_stale", "cache": "c.jsonl"})
    assert main(["train", "--config", str(stale), "--workers", "1"]) == 0
    edited = {"nu1": 6.0e-3, "covs": [0.05], "m": 2, "level": 2}
    write_config(stale, viscosity=edited,
                 surrogates={"models": ["sc", "gp"]},
                 assess={"n_mc": 4, "sample_seed": 7},
                 paths={"outdir": "out_stale", "cache": "c.jsonl"})
    fresh = write_config(workdir / "fresh.yaml", viscosity=edited,
                         surrogates={"models": ["sc", "gp"]},
                         assess={"n_mc": 4, "sample_seed": 7},
                         paths={"outdir": "out_fresh", "cache": None})
    assert main(["assess", "--config", str(stale), "--workers", "1"]) == 0
    assert main(["assess", "--config", str(fresh), "--workers", "1"]) == 0
    for name in ("report_cov5pct.json", "metrics.csv", "kde_cov5pct.csv"):
        assert ((workdir / "out_stale" / name).read_bytes()
                == (workdir / "out_fresh" / name).read_bytes())
    target = surrogate_path(load_config(stale), "sc", 0.05)
    fitted = target.read_bytes()
    doc = json.loads(fitted)
    assert doc["provenance"]["config"]["viscosity"]["nu1"] == 6.0e-3
    # a file fitted by another version of the fits is refitted too
    assert doc["provenance"]["fit"] == FIT
    for older in (None, FIT - 1):
        if older is None:
            del doc["provenance"]["fit"]
        else:
            doc["provenance"]["fit"] = older
        doc["params"]["coeffs"][0] += 1.0
        target.write_text(json.dumps(doc))
        assert main(["assess", "--config", str(stale), "--workers", "1"]) == 0
        assert target.read_bytes() == fitted


def test_assess_retrains_a_stale_surrogate_it_cannot_load(workdir):
    # provenance is compared before the file is loaded: a stale file is
    # retrained even when it could not be rebuilt
    path = write_config(workdir / "stalebad.yaml",
                        surrogates={"models": ["sc"]},
                        assess={"n_mc": 2, "sample_seed": 7},
                        paths={"outdir": "out_stalebad", "cache": "c.jsonl"})
    assert main(["train", "--config", str(path), "--workers", "1"]) == 0
    target = surrogate_path(load_config(path), "sc", 0.05)
    fresh = target.read_bytes()
    doc = json.loads(fresh)
    del doc["params"]["coeffs"]
    doc["provenance"]["simulator"] = "an older stability chain"
    target.write_text(json.dumps(doc))
    assert main(["assess", "--config", str(path), "--workers", "1"]) == 0
    assert target.read_bytes() == fresh


def test_assess_after_train_loads_without_refitting(workdir, monkeypatch):
    import flowstab.cli as cli

    path = write_config(workdir / "reuse.yaml",
                        surrogates={"models": ["sc"]},
                        assess={"n_mc": 2, "sample_seed": 7},
                        paths={"outdir": "out_reuse", "cache": "c.jsonl"})
    assert main(["train", "--config", str(path), "--workers", "1"]) == 0

    def refit(*args, **kwargs):
        raise AssertionError("assess refitted a surrogate that was current")

    monkeypatch.setattr(cli, "train_surrogates", refit)
    assert main(["assess", "--config", str(path), "--workers", "1"]) == 0


def test_surrogate_of_another_simulator_is_retrained(workdir, monkeypatch):
    # a surrogate file written under an older stability chain (same config
    # and viscosity model, another simulator fingerprint) is not reused
    import flowstab.cli as cli
    from flowstab.config import build_simulator
    from flowstab.simulate import Simulator
    from flowstab.surrogates import save_surrogate, sc_train

    path = write_config(workdir / "older.yaml",
                        surrogates={"models": ["sc"]},
                        paths={"outdir": "out_older", "cache": None})
    config = load_config(path)
    cov = config.covs[0]
    sim = build_simulator(config, cov)
    grid, samples = cli.design_samples(config)
    current = cli.surrogate_provenance(config, sim)
    describe = Simulator.describe
    monkeypatch.setattr(Simulator, "describe",
                        lambda self: {**describe(self), "algorithm": 0})
    older = cli.surrogate_provenance(config, sim)
    monkeypatch.undo()
    assert older != current

    config.outdir.mkdir(parents=True, exist_ok=True)
    fitted = sc_train(grid, np.zeros(samples.n), config.p)
    calls = []
    monkeypatch.setattr(cli, "train_surrogates",
                        lambda *args, **kwargs: calls.append(args) or {})
    save_surrogate(fitted, surrogate_path(config, "sc", cov), provenance=current)
    assert set(cli.ensure_surrogates(config, sim)) == {"sc"}
    assert calls == []
    save_surrogate(fitted, surrogate_path(config, "sc", cov), provenance=older)
    assert cli.ensure_surrogates(config, sim) == {}
    assert len(calls) == 1


def test_spectrum_and_simulator_run_the_one_chain(workdir, monkeypatch):
    import flowstab.simulate as simulate
    from flowstab.config import build_simulator

    hits = {"solve_steady": 0, "rightmost": 0}
    for name in hits:
        def counted(*args, _inner=getattr(simulate, name), _name=name,
                    **kwargs):
            hits[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(simulate, name, counted)

    path = write_config(workdir / "chain.yaml",
                        paths={"outdir": "out_chain", "cache": None})
    assert main(["spectrum", "--config", str(path)]) == 0
    assert hits == {"solve_steady": 1, "rightmost": 1}
    sim = build_simulator(load_config(path), 0.05, use_cache=False)
    # the one-time nominal solve is a run of the chain too, eigenpair and all
    assert sim.nominal is not None
    assert hits == {"solve_steady": 2, "rightmost": 2}
    assert not sim.compute(np.zeros(2)).failed
    assert hits == {"solve_steady": 3, "rightmost": 3}
