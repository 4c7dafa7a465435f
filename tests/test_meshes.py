"""Mesh construction: counts, tags, grading, and bookkeeping invariants."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from flowstab.config import build_mesh, build_space_for, load_config
from flowstab.errors import GeometryError
from flowstab.meshes import (build_space, channel_mesh, geometric_breaks,
                             obstacle_mesh, step_mesh)


def test_channel_counts_match_tensor_formulas():
    mesh = channel_mesh(nx=6, ny=4, length=3.0)
    assert mesh.n_cells == 24
    assert mesh.n_vnodes == 13 * 9
    space = build_space(mesh, "q1")
    assert space.n_u == 2 * 13 * 9
    assert space.n_p == 7 * 5


@pytest.mark.parametrize("builder,pressure,n_u,n_p", [
    (lambda: obstacle_mesh(refine=2), "q1", 8416, 1096),
    (lambda: obstacle_mesh(refine=2, length=12.0), "q1", 12640, 1640),
    (lambda: step_mesh(refine=2), "pm1", 8338, 2928),
])
def test_benchmark_dof_counts(builder, pressure, n_u, n_p):
    space = build_space(builder(), pressure)
    assert (space.n_u, space.n_p) == (n_u, n_p)


def test_obstacle_element_count_and_area():
    mesh = obstacle_mesh(refine=2)
    assert mesh.n_cells == 64 * 16 - 4 * 4
    assert mesh.area() == pytest.approx(16.0 - 0.25, abs=1e-12)


def test_step_element_count_and_area():
    mesh = step_mesh(refine=2)
    assert mesh.n_cells == 4 * 4 + 120 * 8
    assert mesh.area() == pytest.approx(61.0, abs=1e-12)


def test_dof_counts_invariant_under_stretching():
    plain = build_space(obstacle_mesh(refine=1), "q1")
    graded = build_space(obstacle_mesh(refine=1, stretch=1.3), "q1")
    assert (plain.n_u, plain.n_p) == (graded.n_u, graded.n_p)
    assert graded.mesh.area() == pytest.approx(15.75, abs=1e-10)


def test_geometric_breaks_properties():
    pts = geometric_breaks(0.0, 2.0, 8, ratio=1.2, refine="end")
    assert pts.shape == (9,)
    assert pts[0] == 0.0 and pts[-1] == pytest.approx(2.0, abs=1e-14)
    widths = np.diff(pts)
    assert (widths > 0).all()
    # ratio bounds the span: widest over narrowest cell, graded smoothly
    np.testing.assert_allclose(widths.max() / widths.min(), 1.2, rtol=1e-12)
    # refined toward the end, with a constant cell-to-cell quotient
    assert widths.argmin() == widths.size - 1
    quotients = widths[:-1] / widths[1:]
    np.testing.assert_allclose(quotients, quotients[0], rtol=1e-12)
    uniform = geometric_breaks(0.0, 2.0, 8)
    np.testing.assert_allclose(uniform, np.linspace(0, 2, 9), atol=1e-15)


@pytest.mark.parametrize("build", [obstacle_mesh, step_mesh, channel_mesh],
                         ids=["obstacle_mesh", "step_mesh", "channel_mesh"])
def test_boundary_tags_partition_boundary_nodes(build):
    # build_space relies on it: each node takes the values of one tag
    mesh = build()
    seen = np.concatenate([b.vnodes for b in mesh.boundary.values()])
    assert seen.size == np.unique(seen).size
    if build is obstacle_mesh:
        # obstacle perimeter at refine=1: 2 cells per side, Q2 edge nodes
        assert mesh.boundary["obstacle"].vnodes.size == 16
        # left edge of the channel: 2*ny+1 fine nodes
        assert mesh.boundary["inflow"].vnodes.size == 17


def test_inflow_profile_and_wall_values():
    mesh = obstacle_mesh(refine=1)
    space = build_space(mesh, "q1")
    nv = mesh.n_vnodes
    values = dict(zip(space.dirichlet, space.dirichlet_values))
    for node in mesh.boundary["inflow"].vnodes:
        x, y = mesh.vnode_xy[node]
        assert values[node] == pytest.approx(1.0 - y**2, abs=1e-14)
        assert values[nv + node] == 0.0
    for tag in ("walls", "obstacle"):
        for node in mesh.boundary[tag].vnodes:
            assert values[node] == 0.0 and values[nv + node] == 0.0
    # outflow nodes are unconstrained
    assert not set(mesh.boundary["outflow"].vnodes) & set(space.dirichlet[space.dirichlet < nv])


def test_step_inflow_profile_vanishes_at_leg_walls():
    mesh = step_mesh(refine=1)
    space = build_space(mesh, "pm1")
    values = dict(zip(space.dirichlet, space.dirichlet_values))
    inflow_y = mesh.vnode_xy[mesh.boundary["inflow"].vnodes, 1]
    assert inflow_y.min() == pytest.approx(-0.5) and inflow_y.max() == pytest.approx(0.5)
    for node in mesh.boundary["inflow"].vnodes:
        y = mesh.vnode_xy[node, 1]
        assert values[node] == pytest.approx(1.0 - 4 * y**2, abs=1e-14)


def test_interior_and_dirichlet_partition_velocity_dofs():
    space = build_space(step_mesh(refine=1), "pm1")
    both = np.concatenate([space.interior, space.dirichlet])
    both.sort()
    np.testing.assert_array_equal(both, np.arange(space.n_u))


def test_pm1_dofs_are_cell_local():
    space = build_space(channel_mesh(nx=4, ny=2), "pm1")
    assert space.n_p == 3 * 8
    np.testing.assert_array_equal(space.cell_pdofs[2], [6, 7, 8])


def test_connectivity_tensor_order():
    mesh = channel_mesh(nx=2, ny=2, length=2.0)
    # cell (0, 0): local node 0 at (0,-1), node 4 at cell center, node 8 at (1,0)
    xy = mesh.vnode_xy[mesh.cell_vnodes[0]]
    np.testing.assert_allclose(xy[0], [0.0, -1.0])
    np.testing.assert_allclose(xy[4], [0.5, -0.5])
    np.testing.assert_allclose(xy[8], [1.0, 0.0])


def test_misaligned_requests_rejected():
    with pytest.raises(GeometryError):
        obstacle_mesh(refine=1, length=8.1)
    with pytest.raises(GeometryError):
        step_mesh(refine=1, outflow_length=30.3)
    with pytest.raises(GeometryError):
        step_mesh(refine=1, outflow_length=-3.0)
    with pytest.raises(GeometryError):
        geometric_breaks(0.0, 1.0, 4, ratio=0.5, refine="end")
    with pytest.raises(GeometryError):
        build_space(channel_mesh(2, 2), "p2")


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: discretization_digest of each shipped config's space.  The simulator
#: fingerprint hashes the breakpoints and cell mask but not the numbering
#: of nodes and DOFs, so cache records made under one numbering would be
#: reused under another: a change to the numbering must change these and
#: the fingerprint together
NUMBERING_DIGESTS = {
    "obstacle_desk": "915cec4b7c7eda76b6316836fd6b4e494689ad044d35f93afaf3d3d30c2366ed",
    "obstacle_full": "c4b6ae6a63eee4fbca0c3ca85ad82e9a6063693bd31f2a33b4ba48b03c579b8f",
    "step_desk": "9e0fe6cf61e3a3460daad8d5a1de4aa9fc00600f81f8db31fd7409a887fd217f",
    "step_full": "ebf5de8d4b05859f2b68280b73ab6194bb2d0a94b07486b33cda74bd543842e7",
}


def discretization_digest(space):
    """sha256 over a space's connectivity, boundary tags and Dirichlet data."""
    mesh = space.mesh
    digest = hashlib.sha256()
    arrays = [mesh.cells, mesh.vnode_xy, mesh.cell_vnodes, mesh.pnode_xy,
              mesh.cell_pnodes]
    for name, tag in mesh.boundary.items():
        digest.update(f"{name}:{tag.kind}".encode())
        arrays.append(tag.vnodes)
    arrays += [space.dirichlet, space.dirichlet_values, space.interior,
               space.cell_pdofs]
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(NUMBERING_DIGESTS))
def test_shipped_discretizations_keep_their_numbering(name):
    config = load_config(CONFIGS / f"{name}.yaml")
    space = build_space_for(config, build_mesh(config))
    assert discretization_digest(space) == NUMBERING_DIGESTS[name]
