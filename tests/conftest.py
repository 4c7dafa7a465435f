"""Shared fixtures and pencil builders for the test suite."""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from flowstab.assembly import SpatialField
from flowstab.meshes import build_space, channel_mesh
from flowstab.steady import build_operators, solve_steady


def planted_pencil(n, seed, rightmost_re=None):
    """Random generalized pencil with a known spectrum.

    Eigenvalues are planted through orthogonal similarity, so they are
    exact to roundoff: a conjugate pair sits rightmost near the origin,
    a couple of dozen damped values fill the nearby disk, and the rest
    lie far left.  Returns ``(J, M, rightmost)`` with ``J = M Q D Q^T``.
    """
    rng = np.random.default_rng(seed)
    if rightmost_re is None:
        rightmost_re = rng.uniform(-0.3, 0.3)
    pair = (rightmost_re, rng.uniform(0.4, 1.2))
    blocks = [np.array([[pair[0], pair[1]], [-pair[1], pair[0]]])]
    near = rightmost_re - 0.2 - 2.0 * rng.random(min(20, n - 2))
    blocks.extend(np.array([[v]]) for v in near)
    far = rightmost_re - 3.0 - 10.0 * rng.random(n - 2 - near.size)
    blocks.extend(np.array([[v]]) for v in far)
    D = np.zeros((n, n))
    pos = 0
    for b in blocks:
        D[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
        pos += b.shape[0]
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = Q2 @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q2.T
    J = M @ Q @ D @ Q.T
    return (sparse.csr_matrix(J), sparse.csr_matrix(M),
            complex(pair[0], abs(pair[1])))


def channel_flow_pencil(nx, ny, pressure, nu, delta=-1e-2):
    """Stability pencil of the steady channel flow on a small mesh."""
    from flowstab.eigen import build_problem

    mesh = channel_mesh(nx=nx, ny=ny, length=float(nx) / 2.0)
    space = build_space(mesh, pressure)
    ops = build_operators(mesh, space, SpatialField.constant(mesh, nu))
    return build_problem(ops, solve_steady(ops), delta)


def _workers() -> int:
    return max(1, min(8, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def desk_study(tmp_path_factory):
    """Full coarse-mesh obstacle study shared by the end-to-end criteria.

    For each CoV: the simulator, its design-node outputs, the three
    trained surrogates, and a 200-sample Monte Carlo run.  An evaluation
    cache serves the design-node outputs from the training run.
    """
    from flowstab.cli import design_samples, train_surrogates
    from flowstab.config import (build_kl, build_mesh, build_simulator,
                                 build_space_for, config_from_dict)
    from flowstab.simulate import SampleSet, monte_carlo

    config = config_from_dict({
        "benchmark": "obstacle",
        "mesh": {"refine": 1},
        "viscosity": {"covs": [0.01, 0.10], "m": 2},
        "eigen": {"seed": 0},
        "surrogates": {"nn_seed": 0},
        "assess": {"n_mc": 200, "sample_seed": 101},
        "paths": {"cache": None},
    })
    mesh = build_mesh(config)
    space = build_space_for(config, mesh)
    kl = build_kl(config, mesh)
    grid, gsamples = design_samples(config)
    samples = SampleSet.draw(config.n_mc, config.m, config.distribution,
                             config.sample_seed)
    cache = tmp_path_factory.mktemp("desk_study") / "cache.jsonl"
    by_cov = {}
    for cov in config.covs:
        sim = build_simulator(config, cov, use_cache=False,
                              mesh=mesh, space=space, kl=kl)
        sim.attach_cache(cache)
        surrogates = train_surrogates(config, sim, cov,
                                      workers=_workers(), save=False)
        design_mc = monte_carlo(sim, gsamples, workers=_workers())
        mc = monte_carlo(sim, samples, workers=_workers())
        by_cov[cov] = SimpleNamespace(sim=sim, surrogates=surrogates,
                                      design_mc=design_mc, mc=mc)
    return SimpleNamespace(config=config, grid=grid, design_samples=gsamples,
                           samples=samples, by_cov=by_cov)


def _reference_run(mesh_builder, pressure, nu1, settings, k):
    from flowstab.eigen import build_problem, rightmost

    mesh = mesh_builder()
    space = build_space(mesh, pressure)
    ops = build_operators(mesh, space, SpatialField.constant(mesh, nu1))
    start = time.perf_counter()
    steady = solve_steady(ops, settings)
    eig = rightmost(build_problem(ops, steady), k=k)
    seconds = time.perf_counter() - start
    return SimpleNamespace(space=space, result=eig, seconds=seconds)


@pytest.fixture(scope="session")
def reference_obstacle():
    """Production-density obstacle run at the mean viscosity."""
    from flowstab.meshes import obstacle_mesh

    return _reference_run(lambda: obstacle_mesh(2, stretch=5.0), "q1",
                      5.36193e-3, None, k=48)


@pytest.fixture(scope="session")
def reference_step():
    """Production-density expansion-step run at the mean viscosity."""
    from flowstab.meshes import step_mesh
    from flowstab.steady import SolverSettings

    return _reference_run(lambda: step_mesh(2), "pm1",
                      4.5455e-3, SolverSettings(20, 20), k=24)
