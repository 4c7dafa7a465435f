"""Shared fixtures and pencil builders for the test suite."""

import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from flowstab.assembly import quad_data
from flowstab.meshes import build_space, channel_mesh
from flowstab.steady import build_operators, solve_steady

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def constant_field(mesh, value):
    """A viscosity of `value` at every quadrature point, (n_cells, 9)."""
    return np.full_like(quad_data(mesh).qw, value)


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


def scatter(local, rows, cols, shape):
    """Sum (n_cells, nr, nc) element blocks into a global sparse matrix."""
    r = np.broadcast_to(rows[:, :, None], local.shape)
    c = np.broadcast_to(cols[:, None, :], local.shape)
    return sparse.coo_matrix((local.ravel(), (r.ravel(), c.ravel())),
                             shape=shape).tocsr()


def velocity_matrix(mesh, local):
    """Full-size velocity matrix of element matrices: (n_cells, 9, 9) on
    both components, or (n_cells, 2, 2, 9, 9) per pair of components."""
    nodes, nv = mesh.cell_vnodes, mesh.n_vnodes
    if local.ndim == 3:
        block = scatter(local, nodes, nodes, (nv, nv))
        return sparse.block_diag([block, block], format="csr")
    return sparse.bmat([[scatter(local[:, c, d], nodes, nodes, (nv, nv))
                         for d in range(2)] for c in range(2)], format="csr")


def divergence_matrix(mesh, space, local):
    """Full-size ``B`` (n_p, n_u) of divergence element blocks."""
    shape = (space.n_p, mesh.n_vnodes)
    return sparse.hstack([scatter(local[:, k], space.cell_pdofs,
                                  mesh.cell_vnodes, shape)
                          for k in range(2)], format="csr")


def channel_flow_pencil(nx, ny, pressure, nu, delta=-1e-2):
    """Stability pencil of the steady channel flow on a small mesh."""
    from flowstab.eigen import build_problem

    mesh = channel_mesh(nx=nx, ny=ny, length=float(nx) / 2.0)
    space = build_space(mesh, pressure)
    ops = build_operators(mesh, space, constant_field(mesh, nu))
    return build_problem(ops, solve_steady(ops), delta)


def _workers() -> int:
    return max(1, min(8, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def desk_study(tmp_path_factory):
    """Full coarse-mesh obstacle study shared by the end-to-end criteria.

    For each CoV: the simulator, its design-node outputs, the three
    trained surrogates, and a 200-sample Monte Carlo run.  The outdir and
    the evaluation cache sit in a temporary directory; the cache serves
    the design-node outputs from the training run.
    """
    from flowstab.cli import design_samples, train_surrogates
    from flowstab.config import build_simulator, config_from_dict
    from flowstab.simulate import SampleSet, monte_carlo

    config = config_from_dict({
        "benchmark": "obstacle",
        "mesh": {"refine": 1},
        "viscosity": {"covs": [0.01, 0.10], "m": 2},
        "eigen": {"seed": 0},
        "surrogates": {"nn_seed": 0},
        "assess": {"n_mc": 200, "sample_seed": 101},
    }, base_dir=tmp_path_factory.mktemp("desk_study"))
    grid, gsamples = design_samples(config)
    samples = SampleSet.draw(config.n_mc, config.m, config.distribution,
                             config.sample_seed)
    by_cov = {}
    for cov in config.covs:
        sim = build_simulator(config, cov)
        surrogates = train_surrogates(config, sim, workers=_workers())
        design_mc = monte_carlo(sim, gsamples, workers=_workers())
        mc = monte_carlo(sim, samples, workers=_workers())
        by_cov[cov] = SimpleNamespace(sim=sim, surrogates=surrogates,
                                      design_mc=design_mc, mc=mc)
    return SimpleNamespace(config=config, grid=grid, design_samples=gsamples,
                           samples=samples, by_cov=by_cov)


def _reference_run(name):
    """Stability run at the mean viscosity under a shipped configuration."""
    from flowstab.config import build_mesh, build_space_for, load_config
    from flowstab.simulate import stability

    config = load_config(CONFIGS / f"{name}.yaml")
    mesh = build_mesh(config)
    space = build_space_for(config, mesh)
    start = time.perf_counter()
    eig = stability(mesh, space, constant_field(mesh, config.nu1),
                    config.solver, config.k, config.eigen_seed)[1]
    return SimpleNamespace(result=eig, seconds=time.perf_counter() - start)


@pytest.fixture(scope="session")
def reference_obstacle():
    """Production-density obstacle run at the mean viscosity."""
    return _reference_run("obstacle_full")


@pytest.fixture(scope="session")
def reference_step():
    """Production-density expansion-step run at the mean viscosity."""
    return _reference_run("step_full")
