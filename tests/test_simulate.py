"""Simulator composition, the evaluation cache, and the Monte Carlo loop.

Everything runs on a deliberately tiny straight channel so a full
steady-plus-eigen solve takes milliseconds.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import constant_field
from flowstab import eigen, simulate, steady
from flowstab.config import build_simulator, load_config
from flowstab.eigen import build_problem, rightmost
from flowstab.errors import ConfigError, ConvergenceError, EigenError
from flowstab.gpc import FAMILIES
from flowstab.meshes import build_space, channel_mesh, obstacle_mesh
from flowstab.randomfield import kl_decompose
from flowstab.simulate import (EvalCache, McResult, Nominal, SampleRecord,
                               SampleSet, Simulator, monte_carlo, stability)
from flowstab.steady import FlowState, build_operators, solve_steady
from flowstab.viscosity import build_affine, build_lognormal

NU1 = 0.01

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def toy():
    mesh = channel_mesh(8, 4, length=2.0)
    space = build_space(mesh, "q1")
    kl = kl_decompose(mesh, 2, 0.5, 0.5)
    return mesh, space, kl


def make_sim(toy, kind="affine", cov=0.1, **kwargs):
    mesh, space, kl = toy
    if kind == "affine":
        model = build_affine(NU1, cov, kl)
    else:
        model = build_lognormal(NU1, cov, kl, 3)
    return Simulator(space, model, label="toy-channel", **kwargs)


def run_one(sim, xi):
    """One cached evaluation: a single-sample Monte Carlo run."""
    samples = SampleSet(np.array([xi], dtype=float), 0,
                        FAMILIES[sim.model.basis.family])
    return monte_carlo(sim, samples).records[0]


def test_sample_set_draws_reproducible():
    a = SampleSet.draw(50, 3, "normal", seed=42)
    b = SampleSet.draw(50, 3, "normal", seed=42)
    np.testing.assert_array_equal(a.xi, b.xi)
    c = SampleSet.draw(50, 3, "normal", seed=43)
    assert not np.array_equal(a.xi, c.xi)
    assert a.n == 50 and a.dim == 3


def test_sample_set_uniform_bounds():
    s = SampleSet.draw(500, 2, "uniform", seed=1)
    assert s.xi.min() >= -1.0 and s.xi.max() <= 1.0
    # a normal draw of this size always escapes the unit box
    assert np.abs(SampleSet.draw(500, 2, "normal", seed=1).xi).max() > 1.0
    with pytest.raises(ConfigError, match="unknown distribution 'lognormal'"):
        SampleSet.draw(10, 2, "lognormal", seed=0)
    with pytest.raises(ConfigError):
        SampleSet.draw(0, 2, "normal", seed=0)


def test_run_at_zero_matches_deterministic(toy):
    # the affine model at the origin is exactly the constant mean viscosity
    mesh, space, _ = toy
    sim = make_sim(toy)
    record = run_one(sim, [0.0, 0.0])
    assert not record.failed

    ops = build_operators(space, constant_field(mesh, NU1))
    steady = solve_steady(ops)
    eig = rightmost(build_problem(ops, steady))
    assert record.lam_re == pytest.approx(eig.eigenvalue.real, rel=1e-12, abs=1e-14)
    assert record.lam_im == pytest.approx(eig.eigenvalue.imag, rel=1e-12, abs=1e-14)
    # short straight channel at this viscosity is comfortably stable
    assert record.lam_re < 0.0
    assert record.digest != ""


def test_repeat_run_is_bitwise_equal(toy):
    sim = make_sim(toy)
    xi = [0.3, -0.4]
    assert run_one(sim, xi) == run_one(sim, xi)


def test_cache_hit_skips_computation(toy, tmp_path, monkeypatch):
    sim = make_sim(toy)
    sim.attach_cache(tmp_path / "cache.jsonl")
    first = run_one(sim, [0.2, 0.1])

    calls = {"n": 0}
    original = Simulator.compute

    def counting(self, xi):
        calls["n"] += 1
        return original(self, xi)

    monkeypatch.setattr(Simulator, "compute", counting)
    again = run_one(sim, [0.2, 0.1])
    assert calls["n"] == 0
    assert again == first


def test_cache_survives_reload(toy, tmp_path):
    path = tmp_path / "cache.jsonl"
    sim = make_sim(toy)
    sim.attach_cache(path)
    record = run_one(sim, [0.25, -0.5])

    fresh = make_sim(toy)
    fresh.attach_cache(path)
    assert len(fresh.cache) == 1
    assert run_one(fresh, [0.25, -0.5]) == record


def test_cache_fingerprint_mismatch_forbids_reuse(toy, tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    sim = make_sim(toy)
    sim.attach_cache(path)
    run_one(sim, [0.1, 0.1])

    # poison the stored record: claim it came from a different configuration
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[0]["fingerprint"] = "deadbeef"
    lines[0]["lam_re"] = 123.0
    path.write_text("\n".join(json.dumps(d) for d in lines) + "\n")

    calls = {"n": 0}
    original = Simulator.compute

    def counting(self, xi):
        calls["n"] += 1
        return original(self, xi)

    monkeypatch.setattr(Simulator, "compute", counting)
    reloaded = make_sim(toy)
    reloaded.attach_cache(path)
    record = run_one(reloaded, [0.1, 0.1])
    assert calls["n"] == 1
    assert record.lam_re != 123.0


def test_cache_key_separates_configurations(toy, tmp_path):
    # same samples, different eigensolver setup: distinct fingerprints
    a = make_sim(toy)
    b = make_sim(toy, k=12)
    assert a.fingerprint != b.fingerprint
    c = make_sim(toy, cov=0.2)
    assert a.fingerprint != c.fingerprint


def test_fingerprint_identifies_the_mesh():
    # graded and uniform obstacle meshes share every count and the bounding
    # box; with one viscosity model only the breakpoints tell them apart
    uniform = obstacle_mesh(refine=1, stretch=1.0)
    graded = obstacle_mesh(refine=1, stretch=5.0)
    model = build_affine(NU1, 0.1, kl_decompose(uniform, 2, 2.0, 0.5))
    a = Simulator(build_space(uniform, "q1"), model)
    b = Simulator(build_space(graded, "q1"), model)
    assert a.fingerprint != b.fingerprint


def test_monte_carlo_single_sample(toy):
    sim = make_sim(toy)
    samples = SampleSet(np.array([[0.0, 0.0]]), seed=0, distribution="uniform")
    result = monte_carlo(sim, samples)
    assert isinstance(result, McResult)
    assert result.n == 1 and result.n_failed == 0
    assert result.records[0] == sim.compute([0.0, 0.0])
    assert result.sample_hash == samples.content_hash()


def test_monte_carlo_cov_zero_identical(toy):
    sim = make_sim(toy, cov=0.0)
    samples = SampleSet.draw(3, 2, "uniform", seed=5)
    result = monte_carlo(sim, samples)
    values = result.values()
    assert values.size == 3
    assert values[0] == values[1] == values[2]


def test_monte_carlo_order_independent(toy):
    sim = make_sim(toy)
    samples = SampleSet.draw(4, 2, "uniform", seed=3)
    forward = monte_carlo(sim, samples)
    perm = np.array([2, 0, 3, 1])
    shuffled = SampleSet(samples.xi[perm], seed=3, distribution="uniform")
    backward = monte_carlo(sim, shuffled)
    for i, j in enumerate(perm):
        assert backward.records[i] == forward.records[j]


def test_monte_carlo_failed_samples_excluded(toy):
    sim = make_sim(toy, cov=0.3)
    # the second sample drives the affine field negative
    xi = np.array([[0.1, 0.2], [-60.0, 0.0], [-0.3, 0.5]])
    samples = SampleSet(xi, seed=0, distribution="uniform")
    result = monte_carlo(sim, samples)
    assert result.n_failed == 1
    assert not result.ok[1]
    assert result.records[1].note.startswith("viscosity")
    assert np.isnan(result.records[1].lam_re)
    assert result.values().size == 2
    assert np.isfinite(result.values()).all()


def test_monte_carlo_rejects_mismatches(toy):
    sim = make_sim(toy)
    with pytest.raises(ConfigError):
        monte_carlo(sim, SampleSet.draw(2, 3, "uniform", seed=0))


@pytest.mark.parametrize("kind, distribution",
                         [("lognormal", "uniform"), ("affine", "normal")])
def test_monte_carlo_rejects_the_other_germ_law_before_any_solve(
        toy, monkeypatch, kind, distribution):
    sim = make_sim(toy, kind=kind)
    solves = []
    monkeypatch.setattr(simulate, "solve_steady",
                        lambda *args, **kwargs: solves.append(args))
    with pytest.raises(ConfigError, match=f"drawn from '{distribution}'"):
        monte_carlo(sim, SampleSet.draw(3, 2, distribution, seed=0), workers=2)
    assert solves == [] and "nominal" not in vars(sim)


def test_monte_carlo_lognormal_normal_germs(toy):
    sim = make_sim(toy, kind="lognormal")
    samples = SampleSet.draw(2, 2, "normal", seed=8)
    result = monte_carlo(sim, samples)
    assert result.n_failed == 0
    assert (result.values() < 0.0).all()


def test_monte_carlo_parallel_matches_serial(toy):
    sim = make_sim(toy)
    samples = SampleSet.draw(4, 2, "uniform", seed=12)
    serial = monte_carlo(sim, samples, workers=1)
    parallel = monte_carlo(sim, samples, workers=2)
    assert serial.records == parallel.records


def test_monte_carlo_parallel_fills_cache(toy, tmp_path):
    sim = make_sim(toy)
    sim.attach_cache(tmp_path / "cache.jsonl")
    samples = SampleSet.draw(3, 2, "uniform", seed=2)
    first = monte_carlo(sim, samples, workers=2)
    assert len(sim.cache) == 3

    # second pass is all cache hits and bitwise identical
    from flowstab import simulate

    def boom(self, xi):
        raise AssertionError("cache miss")

    original = Simulator.compute
    Simulator.compute = boom
    try:
        second = monte_carlo(sim, samples, workers=1)
    finally:
        Simulator.compute = original
    assert second.records == first.records


def test_record_round_trip():
    record = SampleRecord((0.1, -0.2), -0.05, 0.0, False, "", "abc123")
    assert SampleRecord.from_dict(record.to_dict()) == record


def test_eval_cache_append_only(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = EvalCache(path, "fp")
    r1 = SampleRecord((1.0,), -1.0, 0.0, False)
    cache.put("k1", r1)
    cache.put("k1", SampleRecord((1.0,), 99.0, 0.0, False))
    assert cache.get("k1") == r1
    assert len(path.read_text().splitlines()) == 1


def test_singular_steady_solve_fails_only_its_sample(toy, monkeypatch):
    sim = make_sim(toy)
    samples = SampleSet.draw(2, 2, "uniform", seed=4)

    def singular(matrix, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(steady, "splu", singular)
    result = monte_carlo(sim, samples)
    assert result.n_failed == 2
    assert all(r.note.startswith("steady solve: saddle-point factorization")
               for r in result.records)
    assert np.isnan(result.lam_re).all()


def cache_line(key, lam_re):
    record = SampleRecord((0.0,), lam_re, 0.0, False)
    return json.dumps({"key": key, "fingerprint": "fp", **record.to_dict()})


def test_eval_cache_skips_torn_last_line(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text(cache_line("k1", -1.0) + "\n" + cache_line("k2", -2.0)[:25])
    cache = EvalCache(path, "fp")
    assert len(cache) == 1 and cache.get("k1").lam_re == -1.0
    assert "torn last line" in capsys.readouterr().err

    # the next append replaces the torn tail instead of gluing onto it
    cache.put("k3", SampleRecord((3.0,), -3.0, 0.0, False))
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == cache_line("k1", -1.0)
    assert json.loads(lines[1])["key"] == "k3"
    reloaded = EvalCache(path, "fp")
    assert len(reloaded) == 2 and reloaded.get("k3").lam_re == -3.0
    assert capsys.readouterr().err == ""


def test_eval_cache_keeps_a_whole_last_record_without_its_newline(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    cache = EvalCache(path, "fp")
    for key, lam_re in (("a", -1.0), ("b", -2.0)):
        cache.put(key, SampleRecord((0.0,), lam_re, 0.0, False))
    whole = path.read_bytes()
    path.write_bytes(whole[:-1])
    cache = EvalCache(path, "fp")
    assert len(cache) == 2 and cache.get("b").lam_re == -2.0
    # the next append ends that record's line before it writes its own
    cache.put("c", SampleRecord((0.0,), -3.0, 0.0, False))
    assert path.read_bytes().startswith(whole)
    lines = path.read_text().splitlines()
    assert [json.loads(line)["key"] for line in lines] == ["a", "b", "c"]
    assert len(EvalCache(path, "fp")) == 3
    assert capsys.readouterr().err == ""


def test_eval_cache_rejects_corrupt_inner_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(cache_line("k1", -1.0) + "\n{not json\n"
                    + cache_line("k2", -2.0) + "\n")
    with pytest.raises(ConfigError, match=r"c\.jsonl, line 2"):
        EvalCache(path, "fp")


@pytest.mark.parametrize("line", [
    "123", '{"a": 1}', '["k", "fp"]',
    '{"key": "k", "fingerprint": "fp", "xi": [0.0], "lam_re": "x", '
    '"lam_im": 0.0, "failed": false}',
    '{"key": 1, "fingerprint": "fp", "xi": [0.0], "lam_re": 0.0, '
    '"lam_im": 0.0, "failed": false}',
    '{"xi": [0.0, 0.0], "lam_re": 0.0, "lam_im": 0.0, "failed": false}',
    '{"key": "k", "xi": [0.0], "lam_re": 0.0, "lam_im": 0.0, "failed": false}',
    '{"key": "k", "fingerprint": "fp", "xi": [0.0], "lam_re": 0.0, '
    '"lam_im": 0.0, "failed": "false"}',
    '{"key": "k", "fingerprint": "fp", "xi": "ab", "lam_re": 0.0, '
    '"lam_im": 0.0, "failed": false}',
    '{"key": "k", "fingerprint": "fp", "xi": [true], "lam_re": 0.0, '
    '"lam_im": 0.0, "failed": false}',
    '{"key": "k", "fingerprint": "fp", "xi": [0.0], "lam_re": 0.0, '
    '"lam_im": false, "failed": false}',
    '{"key": "k", "fingerprint": "fp", "xi": [0.0], "lam_re": 0.0, '
    '"lam_im": 0.0, "failed": true, "note": 3}',
    '{"key": "k", "fingerprint": "fp", "xi": [0.0], "lam_re": 0.0, '
    '"lam_im": 0.0, "failed": false, "digest": null}'])
@pytest.mark.parametrize("last", [False, True])
def test_eval_cache_rejects_lines_that_are_not_records(tmp_path, line, last):
    # a line that decodes but is not a record is corruption, even at the
    # end of the file: only an undecodable last line counts as torn
    path = tmp_path / "c.jsonl"
    lines = [cache_line("k1", -1.0), line]
    if not last:
        lines.append(cache_line("k2", -2.0))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"c\.jsonl, line 2: not a cache record"):
        EvalCache(path, "fp")


# -- warm start from the nominal steady state --------------------------------


@pytest.mark.parametrize("name,germs", [
    ("obstacle_desk", [(3.0, 0.0), (-3.0, 3.0), (2.12, 2.12)]),
    ("step_desk", [(0.95, 0.95), (0.95, -0.95), (-0.95, 0.95), (-0.95, -0.95)]),
])
def test_warm_start_stays_on_the_cold_eigenvalue_at_tail_germs(name, germs):
    # |xi| ~ 3 for the Hermite germs and the corners of the Legendre box:
    # the samples furthest from the nominal state and eigenpair that the
    # warm start and the tracked eigensolve begin at
    sim = build_simulator(load_config(CONFIGS / f"{name}.yaml"), 0.10,
                          use_cache=False)
    for xi in germs:
        viscosity = sim.model.evaluate(np.array(xi))
        warm_steady, warm = sim.solve(xi)
        # no start: the cold Stokes -> Picard -> Newton path and the sweep
        cold_steady, cold = stability(sim.space, viscosity,
                                      sim.settings, sim.k, sim.seed)
        assert warm_steady.trace[0]["kind"] == "warm", xi
        assert len(warm_steady.trace) < len(cold_steady.trace), xi
        assert abs(warm.eigenvalue - cold.eigenvalue) <= 1e-9, xi
        # the origin sweep on the same steady state
        ops = build_operators(sim.space, viscosity)
        sweep = rightmost(build_problem(ops, warm_steady), sim.k, sim.seed)
        assert (warm.method, sweep.method) == ("tracked", "arnoldi"), xi
        assert abs(warm.eigenvalue - sweep.eigenvalue) <= 1e-9, xi


#: rightmost eigenvalues at the tail germs (CoV 0.10) as the chain
#: computes them from the tangent start (ALGORITHM 7); a change that only
#: reorders sums moves them by far less than the bound below
RECORDED_TAIL_EIGENVALUES = {
    "obstacle_desk": {(3.0, 0.0): -0.2984040375118842,
                      (-3.0, 3.0): -0.1795971563078974,
                      (2.12, 2.12): -0.27735311528302203},
    "step_desk": {(0.95, 0.95): -0.010537129592046675,
                  (0.95, -0.95): 0.0013255482635670932,
                  (-0.95, 0.95): -0.0023213254691068336,
                  (-0.95, -0.95): 0.007771326857670768},
}


@pytest.mark.parametrize("name", sorted(RECORDED_TAIL_EIGENVALUES))
def test_tail_germ_eigenvalues_match_recorded_values(name):
    sim = build_simulator(load_config(CONFIGS / f"{name}.yaml"), 0.10,
                          use_cache=False)
    for xi, value in RECORDED_TAIL_EIGENVALUES[name].items():
        lam = sim.solve(xi)[1].eigenvalue
        assert abs(lam - value) <= 1e-12, xi


def count_factorizations(monkeypatch) -> Counter:
    """Wrap ``splu`` of the steady and eigen modules so that each call is
    counted under the module's name."""
    counts = Counter()

    def counter(name, original):
        def counted(matrix, **kwargs):
            counts[name] += 1
            return original(matrix, **kwargs)
        return counted

    for name, module in (("steady", steady), ("eigen", eigen)):
        monkeypatch.setattr(module, "splu", counter(name, module.splu))
    return counts


@pytest.mark.parametrize("name", sorted(RECORDED_TAIL_EIGENVALUES))
def test_warm_solve_factors_one_steady_and_one_eigen_matrix(name, monkeypatch):
    # the chord steps reuse the LU of the Jacobian at the tangent start, so
    # even the tail germs take one steady factorization
    sim = build_simulator(load_config(CONFIGS / f"{name}.yaml"), 0.10,
                          use_cache=False)
    sim.nominal
    counts = count_factorizations(monkeypatch)
    for xi in RECORDED_TAIL_EIGENVALUES[name]:
        counts.clear()
        warm_steady, warm = sim.solve(xi)
        assert counts == {"steady": 1, "eigen": 1}, xi
        kinds = [entry["kind"] for entry in warm_steady.trace]
        assert kinds[:2] == ["warm", "newton"], xi
        assert set(kinds[2:]) == {"chord"}, xi
        cold = stability(sim.space, sim.model.evaluate(np.array(xi)),
                         sim.settings, sim.k, sim.seed)[1]
        assert abs(warm.eigenvalue - cold.eigenvalue) <= 1e-9, xi


def test_threshold_lu_of_the_shifted_step_pencil_keeps_its_residual(monkeypatch):
    # J - lambda0 M_delta at a germ near the nominal one is near-singular by
    # design; threshold pivoting must not cost the tracked solve accuracy
    sim = build_simulator(load_config(CONFIGS / "step_desk.yaml"), 0.10,
                          use_cache=False)
    sim.nominal
    factored, original = [], eigen.splu
    monkeypatch.setattr(eigen, "splu", lambda matrix, **kwargs:
                        factored.append((matrix, kwargs))
                        or original(matrix, **kwargs))
    assert sim.solve((0.6, -0.4))[1].method == "tracked"
    (shifted, kwargs), = factored
    assert kwargs == {"diag_pivot_thresh": steady.PIVOT_THRESHOLD}
    b = np.random.default_rng(0).standard_normal(shifted.shape[0])
    x = original(shifted, **kwargs).solve(b)
    assert np.linalg.norm(x) > 1e4 * np.linalg.norm(b)
    # measured 7.8e-12, and 3.1e-12 with partial pivoting
    assert np.linalg.norm(shifted @ x - b) <= 1e-9 * np.linalg.norm(b)


@pytest.mark.parametrize("name", sorted(RECORDED_TAIL_EIGENVALUES))
def test_tangent_start_is_nearer_than_the_nominal_state_at_tail_germs(name):
    sim = build_simulator(load_config(CONFIGS / f"{name}.yaml"), 0.10,
                          use_cache=False)
    for xi in RECORDED_TAIL_EIGENVALUES[name]:
        predicted = sim.solve(xi)[0].trace[0]
        ops = build_operators(sim.space,
                              sim.model.evaluate(np.array(xi)))
        plain = solve_steady(ops, sim.settings, sim.nominal.state).trace[0]
        assert predicted["kind"] == plain["kind"] == "warm", xi
        # measured 3-11x lower at these germs
        assert predicted["residual"] < plain["residual"] / 2, xi


@pytest.mark.parametrize("spoil", ["nan", "far", "nan-tangent"])
def test_failed_warm_start_gives_the_cold_record(toy, spoil):
    sim = make_sim(toy)
    state, tangent = sim.nominal.state, sim.nominal.tangent
    slope = FlowState(np.zeros_like(tangent.velocity),
                      np.zeros_like(tangent.pressure))
    if spoil == "nan":
        spoiled = FlowState(np.full_like(state.velocity, np.nan),
                            state.pressure)
    elif spoil == "far":
        velocity = state.velocity.copy()
        velocity[sim.space.interior] *= 10.0
        spoiled = FlowState(velocity, state.pressure)
    else:
        spoiled = state
        slope = FlowState(np.full_like(tangent.velocity, np.nan),
                          tangent.pressure)
    # no nominal eigenpair on either side: both sweep
    sim.nominal = Nominal(spoiled, None, slope)
    cold = make_sim(toy)
    cold.nominal = None
    xi = [0.3, -0.4]
    steady_result = sim.solve(xi)[0]
    assert steady_result.trace[0]["kind"] == "stokes"
    assert sim.compute(xi) == cold.compute(xi)


def test_diverging_warm_start_gives_the_cold_record():
    # ten times the nominal velocity: the chord steps drive the residual up
    # until five iterates in a row stay above the lowest residual, and the
    # sample falls back to the cold path
    sim = build_simulator(load_config(CONFIGS / "step_desk.yaml"), 0.10,
                          use_cache=False)
    state, slope = sim.nominal.state, sim.nominal.tangent
    velocity = state.velocity.copy()
    velocity[sim.space.interior] *= 10.0
    spoiled = FlowState(velocity, state.pressure)
    xi = np.array([0.95, 0.95])
    ops = build_operators(sim.space, sim.model.evaluate(xi))
    reference = solve_steady(ops, sim.settings).reference
    with pytest.raises(ConvergenceError) as info:
        steady._iterate(ops, reference, spoiled, "warm",
                        ["chord"] * sim.settings.newton_steps)
    norms = [entry["residual"] for entry in info.value.trace]
    assert norms[-1] > 1e3 * norms[0]
    # it ends on divergence, long before the budget would run out
    assert "diverged" in str(info.value)
    assert len(norms) <= 1 + 2 * steady._DIVERGENCE_PATIENCE
    # no nominal eigenpair on either side: both sweep
    sim.nominal = Nominal(spoiled, None, FlowState(np.zeros_like(slope.velocity),
                                                   np.zeros_like(slope.pressure)))
    cold = build_simulator(load_config(CONFIGS / "step_desk.yaml"), 0.10,
                           use_cache=False)
    cold.nominal = None
    assert sim.solve(xi)[0].trace[0]["kind"] == "stokes"
    assert sim.compute(xi) == cold.compute(xi)


def test_nominal_builds_one_operator_set_and_one_jacobian(toy, monkeypatch):
    calls = {"build_operators": 0, "newton_operator": 0, "splu": 0}
    inside_solve = []
    original_build, original_solve = simulate.build_operators, simulate.solve_steady
    original_newton, original_splu = steady.newton_operator, steady.splu

    def build(*args):
        calls["build_operators"] += 1
        return original_build(*args)

    def solve(*args, **kwargs):
        inside_solve.append(True)
        try:
            return original_solve(*args, **kwargs)
        finally:
            inside_solve.pop()

    def newton(*args):
        # the Newton steps of the steady solve evaluate it at their iterates
        if not inside_solve:
            calls["newton_operator"] += 1
        return original_newton(*args)

    def lu(matrix, **kwargs):
        # the Newton steps factor their own Jacobians too
        if not inside_solve:
            calls["splu"] += 1
        return original_splu(matrix, **kwargs)

    monkeypatch.setattr(simulate, "build_operators", build)
    monkeypatch.setattr(simulate, "solve_steady", solve)
    monkeypatch.setattr(steady, "newton_operator", newton)
    monkeypatch.setattr(eigen, "newton_operator", newton)
    monkeypatch.setattr(steady, "splu", lu)
    monkeypatch.setattr(eigen, "splu", lu)
    sim = make_sim(toy)
    assert sim.nominal is not None and sim.nominal.eigen is not None
    assert sim.nominal.eigen.method == "arnoldi"
    # the pencil's Jacobian is the one the tangent and the sweep share
    assert calls == {"build_operators": 1, "newton_operator": 1, "splu": 1}


def test_singular_nominal_jacobian_leaves_every_sample_cold(toy, monkeypatch):
    original, real_splu = simulate.factor, steady.splu

    def singular(matrix, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    def singular_factor(*args):
        # only the nominal Jacobian's LU fails, not those of its solve
        monkeypatch.setattr(steady, "splu", singular)
        try:
            return original(*args)
        finally:
            monkeypatch.setattr(steady, "splu", real_splu)

    monkeypatch.setattr(simulate, "factor", singular_factor)
    sim = make_sim(toy)
    assert sim.nominal is None
    samples = SampleSet.draw(3, 2, "uniform", seed=6)
    cold = make_sim(toy)
    cold.nominal = None
    result = monte_carlo(sim, samples)
    assert result.records == monte_carlo(cold, samples).records
    assert result.n_failed == 0


@pytest.mark.parametrize("stage", ["steady-solve", "eigensolve"])
def test_failed_nominal_leaves_every_sample_cold(toy, monkeypatch, stage):
    solve, eig = simulate.solve_steady, simulate.rightmost
    starts, nears = [], []

    def solve_spy(ops, settings=None, start=None):
        starts.append(start)
        if stage == "steady-solve" and len(starts) == 1:
            raise ConvergenceError("nominal solve failed", [])
        return solve(ops, settings, start)

    def eig_spy(problem, k=24, seed=0, near=None, lu=None):
        nears.append(near)
        if stage == "eigensolve" and len(nears) == 1:
            raise EigenError("nominal eigensolve failed")
        return eig(problem, k, seed, near, lu)

    monkeypatch.setattr(simulate, "solve_steady", solve_spy)
    monkeypatch.setattr(simulate, "rightmost", eig_spy)
    sim = make_sim(toy)
    samples = SampleSet.draw(3, 2, "uniform", seed=6)
    result = monte_carlo(sim, samples)
    assert sim.nominal is None
    # the nominal's chain, then every sample's, all cold
    assert starts == [None] * 4
    assert nears == [None] * (4 if stage == "eigensolve" else 3)
    monkeypatch.undo()
    cold = make_sim(toy)
    cold.nominal = None
    assert monte_carlo(cold, samples).records == result.records
    assert result.n_failed == 0


def test_all_cached_monte_carlo_never_solves(toy, tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    sim = make_sim(toy)
    sim.attach_cache(path)
    samples = SampleSet.draw(3, 2, "uniform", seed=9)
    first = monte_carlo(sim, samples, workers=2)
    # the parent computed the nominal before the pool forked
    assert sim.__dict__["nominal"] is not None

    def no_solve(*args, **kwargs):
        raise AssertionError("a solver was called on an all-cached run")

    monkeypatch.setattr(simulate, "solve_steady", no_solve)
    monkeypatch.setattr(simulate, "rightmost", no_solve)
    fresh = make_sim(toy)
    fresh.attach_cache(path)
    for workers in (1, 2):
        assert monte_carlo(fresh, samples, workers=workers).records == first.records
    assert "nominal" not in fresh.__dict__


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupted_sweep_keeps_the_records_before_it(toy, tmp_path,
                                                       monkeypatch, workers):
    samples = SampleSet.draw(6, 2, "uniform", seed=4)
    original = Simulator.compute

    def fourth_raises(self, xi):
        if np.array_equal(xi, samples.xi[3]):
            raise RuntimeError("interrupted at the fourth sample")
        return original(self, xi)

    # patched before the fork, so pool workers run it too
    monkeypatch.setattr(Simulator, "compute", fourth_raises)
    sim = make_sim(toy)
    sim.attach_cache(tmp_path / "cache.jsonl")
    with pytest.raises(RuntimeError, match="fourth sample"):
        monte_carlo(sim, samples, workers=workers)
    lines = (tmp_path / "cache.jsonl").read_text().splitlines()
    assert [json.loads(line)["xi"] for line in lines] == samples.xi[:3].tolist()


def test_pool_is_no_larger_than_the_missing_samples(toy, monkeypatch):
    sizes = []
    real = simulate.ProcessPoolExecutor

    def spy(max_workers=None, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", spy)
    sim = make_sim(toy)
    samples = SampleSet.draw(2, 2, "uniform", seed=3)
    result = monte_carlo(sim, samples, workers=8)
    assert sizes == [2]
    # one missing sample runs in this process
    monte_carlo(sim, SampleSet.draw(1, 2, "uniform", seed=5), workers=8)
    assert sizes == [2]
    assert result.records == monte_carlo(make_sim(toy), samples).records


# -- one BLAS thread per process ---------------------------------------------

# numpy and scipy load their OpenBLAS before flowstab is imported, as in a
# program that uses them first; the pin must still reach both libraries
BLAS_PROBE = r"""
import ctypes, json, multiprocessing, re
from concurrent.futures import ProcessPoolExecutor
import numpy, scipy.linalg, scipy.sparse.linalg
import flowstab

def threads():
    with open("/proc/self/maps") as fh:
        libs = set(re.findall(r"/\S*openblas\S*\.so\S*", fh.read()))
    found = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                found[lib] = getter()
                break
    return found

if __name__ == "__main__":
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        worker = pool.submit(threads).result()
    print(json.dumps({"parent": threads(), "worker": worker}))
"""

RECORD_PROBE = r"""
import json
from flowstab import SampleSet, build_simulator, load_config, monte_carlo
sim = build_simulator(load_config({config!r}), 0.10, use_cache=False)
result = monte_carlo(sim, SampleSet([[0.036, 0.441]], 0, "uniform"))
print(json.dumps(result.records[0].to_dict()))
"""


def run_python(code, **env) -> str:
    """stdout of `code` run by a fresh interpreter, with `env` added to
    the environment and flowstab importable."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(simulate.__file__).parent.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="loaded libraries are listed in /proc/self/maps")
def test_importing_flowstab_runs_openblas_on_one_thread():
    found = json.loads(run_python(BLAS_PROBE))
    if not found["parent"]:
        pytest.skip("numpy and scipy load no OpenBLAS here")
    assert set(found["parent"].values()) == {1}, found
    # a forked pool worker inherits the setting
    assert found["worker"] == found["parent"]


def test_records_do_not_depend_on_blas_threads():
    # the step germ whose record moved by an ulp with two BLAS threads
    code = RECORD_PROBE.format(config=str(CONFIGS / "step_desk.yaml"))
    one = run_python(code, OPENBLAS_NUM_THREADS="1")
    two = run_python(code, OPENBLAS_NUM_THREADS="2")
    assert json.loads(one)["failed"] is False
    # repr of a float round-trips, so equal text is equal bits
    assert one == two
