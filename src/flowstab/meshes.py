"""Structured quadrilateral meshes for the benchmark channel geometries.

Every mesh is a tensor grid of axis-aligned rectangular cells described by
two 1D breakpoint arrays plus a boolean mask selecting the active cells.
This covers the three geometries used here:

* plain channel  : all cells active;
* obstacle       : rectangular block of cells removed from the interior;
* expansion step : L-shaped union of a narrow inflow leg and a wide
                   outflow channel.

Velocity uses the 9-node biquadratic element, so velocity nodes live on
the doubled (fine) grid with mid-cell and mid-edge nodes at geometric cell
centers; with graded breakpoints each cell is still a true rectangle.
Pressure is either continuous bilinear on the cell corners or
discontinuous linear with three local functions ``{1, x-xc, y-yc}``.

Boundary edges are tagged by matching their midpoints against named
predicates supplied by the builder, first match wins; each tag is either
Dirichlet (with a velocity profile) or Neumann (natural outflow).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError

_TOL = 1e-10


def geometric_breaks(a: float, b: float, n: int, ratio: float = 1.0,
                     refine: str = "none") -> np.ndarray:
    """Breakpoints of `n` cells on [a, b] with geometrically graded widths.

    `ratio` is the quotient of the largest to the smallest cell (>= 1);
    `refine` says which end gets the small cells: "start", "end", or
    "none" for uniform.
    """
    if n < 1 or b <= a:
        raise GeometryError("need n >= 1 and b > a")
    if ratio < 1.0:
        raise GeometryError("grading ratio must be >= 1")
    if ratio == 1.0 or refine == "none" or n == 1:
        return np.linspace(a, b, n + 1)
    widths = ratio ** (np.arange(n) / (n - 1.0))
    if refine == "end":
        widths = widths[::-1]
    elif refine != "start":
        raise GeometryError(f"unknown refine mode {refine!r}")
    widths *= (b - a) / widths.sum()
    return np.concatenate([[a], a + np.cumsum(widths)])


@dataclass
class BoundaryTag:
    """One named piece of the boundary."""

    kind: str                       # "dirichlet" | "neumann"
    vnodes: np.ndarray              # velocity node ids on this piece
    profile: Optional[Callable]     # arrays (x, y) -> (ux, uy); None means zero


@dataclass
class Mesh:
    """Masked tensor-product mesh of rectangular cells.

    Velocity node ids index the compressed fine grid, cell connectivity is
    tensor ordered: local node ``a = 3*i + j`` sits at fine offsets
    ``(2*ix + i, 2*iy + j)`` of cell ``(ix, iy)``.
    """

    xs: np.ndarray                  # (nx+1,) breakpoints
    ys: np.ndarray                  # (ny+1,)
    cell_mask: np.ndarray           # (nx, ny) bool
    cells: np.ndarray = field(repr=False)        # (n_cells, 2) active (ix, iy)
    vnode_xy: np.ndarray = field(repr=False)     # (n_vnodes, 2)
    cell_vnodes: np.ndarray = field(repr=False)  # (n_cells, 9)
    pnode_xy: np.ndarray = field(repr=False)     # (n_pnodes, 2) cell corners
    cell_pnodes: np.ndarray = field(repr=False)  # (n_cells, 4), a = 2*i + j
    boundary: dict = field(repr=False)           # tag -> BoundaryTag

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_vnodes(self) -> int:
        return self.vnode_xy.shape[0]

    def cell_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell widths (hx, hy)."""
        hx = np.diff(self.xs)[self.cells[:, 0]]
        hy = np.diff(self.ys)[self.cells[:, 1]]
        return hx, hy

    def area(self) -> float:
        hx, hy = self.cell_sizes()
        return float((hx * hy).sum())


def _build_mesh(xs, ys, cell_mask, tag_rules) -> Mesh:
    """Assemble the connectivity of a masked tensor grid.

    `tag_rules` is an ordered list of ``(name, kind, predicate, profile)``;
    a predicate maps the arrays ``(x, y)`` of boundary-edge midpoints to a
    boolean mask (or one bool for all), a profile maps node coordinate
    arrays to the velocity components ``(ux, uy)``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx, ny = xs.size - 1, ys.size - 1
    cell_mask = np.asarray(cell_mask, dtype=bool)
    if cell_mask.shape != (nx, ny):
        raise GeometryError("cell mask shape does not match breakpoints")
    if not (np.diff(xs) > 0).all() or not (np.diff(ys) > 0).all():
        raise GeometryError("breakpoints must increase strictly")
    if not cell_mask.any():
        raise GeometryError("mesh has no active cells")

    # fine (velocity) grid: breakpoints plus per-cell midpoints
    fx = np.empty(2 * nx + 1)
    fx[0::2] = xs
    fx[1::2] = 0.5 * (xs[:-1] + xs[1:])
    fy = np.empty(2 * ny + 1)
    fy[0::2] = ys
    fy[1::2] = 0.5 * (ys[:-1] + ys[1:])

    cells = np.argwhere(cell_mask).astype(np.int64)    # row-major (ix, iy)

    def number(step, gx, gy):
        """Ids of the points ``(step*ix + i, step*iy + j)`` of the grid
        ``gx x gy``, local ``a = (step+1)*i + j`` of active cell (ix, iy),
        numbered row-major over the points used; and their coordinates."""
        i, j = np.divmod(np.arange((step + 1) ** 2), step + 1)
        gi, gj = step * cells[:, :1] + i, step * cells[:, 1:] + j
        used = np.zeros((gx.size, gy.size), dtype=bool)
        used[gi, gj] = True
        ids = np.cumsum(used, dtype=np.int64).reshape(used.shape) - 1
        ui, uj = np.nonzero(used)
        return ids[gi, gj], np.column_stack([gx[ui], gy[uj]])

    cell_vnodes, vnode_xy = number(2, fx, fy)
    cell_pnodes, pnode_xy = number(1, xs, ys)

    # boundary edges: the left, right, bottom and top sides of each cell
    # whose neighbour is not active, as the local nodes along the side
    padded = np.pad(cell_mask, 1)
    open_side = ~padded[cells[:, :1] + [0, 2, 1, 1], cells[:, 1:] + [1, 1, 0, 2]]
    edges = cell_vnodes[:, [[0, 1, 2], [6, 7, 8], [0, 3, 6], [2, 5, 8]]][open_side]
    mx, my = vnode_xy[edges[:, 1]].T
    on_tag = {}
    untagged = np.ones(len(edges), dtype=bool)
    for name, _, pred, _ in tag_rules:
        hit = untagged & pred(mx, my)
        on_tag[name] = np.bincount(edges[hit].ravel(), minlength=len(vnode_xy)) > 0
        untagged &= ~hit
    if untagged.any():
        first = np.argmax(untagged)
        raise GeometryError(f"boundary edge at ({mx[first]}, {my[first]}) "
                            f"matched no tag")

    # A node on the junction of two tags belongs to the first tag listed,
    # except that Dirichlet pieces always claim nodes shared with Neumann
    # pieces (no-slip corners on the outflow edge stay constrained).
    claim_order = ([n for n, k, _, _ in tag_rules if k == "dirichlet"]
                   + [n for n, k, _, _ in tag_rules if k != "dirichlet"])
    seen = np.zeros(len(vnode_xy), dtype=bool)
    claimed = {}
    for name in claim_order:
        claimed[name] = np.nonzero(on_tag[name] & ~seen)[0]
        seen |= on_tag[name]
    boundary = {name: BoundaryTag(kind, claimed[name], profile)
                for name, kind, _, profile in tag_rules}
    return Mesh(xs, ys, cell_mask, cells, vnode_xy, cell_vnodes,
                pnode_xy, cell_pnodes, boundary)


def _near(value: np.ndarray, target: float) -> np.ndarray:
    return abs(value - target) < _TOL


def channel_mesh(nx: int = 32, ny: int = 8, length: float = 8.0,
                 profile: Optional[Callable] = None) -> Mesh:
    """Straight channel [0, length] x [-1, 1], parabolic inflow on the left.

    The default profile is plane Poiseuille flow ``(1 - y^2, 0)``.
    """
    if profile is None:
        profile = lambda x, y: (1.0 - y**2, 0.0)
    xs = np.linspace(0.0, length, nx + 1)
    ys = np.linspace(-1.0, 1.0, ny + 1)
    rules = [
        ("inflow", "dirichlet", lambda x, y: _near(x, 0.0), profile),
        ("outflow", "neumann", lambda x, y: _near(x, length), None),
        ("walls", "dirichlet", lambda x, y: True, None),
    ]
    return _build_mesh(xs, ys, np.ones((nx, ny), dtype=bool), rules)


#: obstacle footprint in channel coordinates
_OBS_X = (1.75, 2.25)
_OBS_Y = (-0.25, 0.25)


def obstacle_mesh(refine: int = 1, length: float = 8.0,
                  stretch: float = 1.0) -> Mesh:
    """Channel [0, length] x [-1, 1] with a square obstacle blocking
    [1.75, 2.25] x [-0.25, 0.25]; inflow ``(1 - y^2, 0)`` on the left.

    `refine` multiplies the base density of four cells per unit length
    (``refine=1`` gives h=0.25, ``refine=2`` the production h=0.125).
    `stretch` > 1 grades cell widths geometrically toward the obstacle in
    both directions, keeping cell counts and node counts unchanged.
    """
    k = int(refine)
    if k < 1 or k != refine:
        raise GeometryError("refine must be a positive integer")
    nx = 4.0 * length * k
    if not np.isfinite(nx):
        raise GeometryError("length gives no finite cell count")
    if abs(nx - round(nx)) > _TOL:
        raise GeometryError("length must be a multiple of 0.25 so the obstacle aligns")
    nx = int(round(nx))
    ny = 8 * k
    if length < _OBS_X[1] + 0.75:
        raise GeometryError("channel too short to contain the obstacle")

    def graded(a, b, n, mode):
        return geometric_breaks(a, b, n, stretch, mode)

    xs = np.concatenate([
        graded(0.0, _OBS_X[0], 7 * k, "end")[:-1],
        np.linspace(*_OBS_X, 2 * k + 1)[:-1],
        graded(_OBS_X[1], length, nx - 9 * k, "start"),
    ])
    ys = np.concatenate([
        graded(-1.0, _OBS_Y[0], 3 * k, "end")[:-1],
        np.linspace(*_OBS_Y, 2 * k + 1)[:-1],
        graded(_OBS_Y[1], 1.0, 3 * k, "start"),
    ])
    mask = np.ones((nx, ny), dtype=bool)
    mask[7 * k:9 * k, 3 * k:5 * k] = False

    inside = lambda x, y: ((_OBS_X[0] - _TOL < x) & (x < _OBS_X[1] + _TOL)
                           & (_OBS_Y[0] - _TOL < y) & (y < _OBS_Y[1] + _TOL))
    rules = [
        ("inflow", "dirichlet", lambda x, y: _near(x, 0.0),
         lambda x, y: (1.0 - y**2, 0.0)),
        ("outflow", "neumann", lambda x, y: _near(x, length), None),
        ("obstacle", "dirichlet", inside, None),
        ("walls", "dirichlet", lambda x, y: True, None),
    ]
    return _build_mesh(xs, ys, mask, rules)


def step_mesh(refine: int = 1, outflow_length: float = 30.0) -> Mesh:
    """Symmetric sudden-expansion channel.

    A narrow inflow leg [-1, 0] x [-0.5, 0.5] opens into the channel
    [0, outflow_length] x [-1, 1]; inflow profile ``(1 - 4 y^2, 0)``.
    `refine` multiplies the base density of two cells per unit length
    (``refine=2`` gives the production h=0.25).
    """
    k = int(refine)
    if k < 1 or k != refine:
        raise GeometryError("refine must be a positive integer")
    if not outflow_length > 0:
        raise GeometryError("outflow length must be positive")
    nrem = 2.0 * outflow_length * k
    if not np.isfinite(nrem):
        raise GeometryError("outflow length gives no finite cell count")
    if abs(nrem - round(nrem)) > _TOL:
        raise GeometryError("outflow length must be a multiple of 0.5")
    nx_in = 2 * k
    nx_out = int(round(nrem))
    nx, ny = nx_in + nx_out, 4 * k
    xs = np.linspace(-1.0, outflow_length, nx + 1)
    ys = np.linspace(-1.0, 1.0, ny + 1)
    mask = np.ones((nx, ny), dtype=bool)
    mask[:nx_in, :k] = False      # below the inflow leg
    mask[:nx_in, 3 * k:] = False  # above the inflow leg
    rules = [
        ("inflow", "dirichlet", lambda x, y: _near(x, -1.0),
         lambda x, y: (1.0 - 4.0 * y**2, 0.0)),
        ("outflow", "neumann", lambda x, y: _near(x, outflow_length), None),
        ("walls", "dirichlet", lambda x, y: True, None),
    ]
    mesh = _build_mesh(xs, ys, mask, rules)
    assert abs(mesh.area() - (1.0 + 2.0 * outflow_length)) < 1e-9
    return mesh


PRESSURES = ("q1", "pm1")


@dataclass
class MixedSpace:
    """Velocity/pressure degree-of-freedom bookkeeping on a mesh.

    Velocity DOFs stack the two components: x-velocity of node ``i`` is DOF
    ``i``, y-velocity is ``n_vnodes + i``.  Pressure DOFs are either the
    active cell corners (``"q1"``) or three per cell (``"pm1"``, ordered
    constant, x-slope, y-slope).
    """

    mesh: Mesh
    pressure: str
    n_u: int
    n_p: int
    dirichlet: np.ndarray = field(repr=False)         # sorted velocity DOF ids
    dirichlet_values: np.ndarray = field(repr=False)
    interior: np.ndarray = field(repr=False)          # complement of dirichlet
    cell_pdofs: np.ndarray = field(repr=False)        # (n_cells, 4 or 3)


def build_space(mesh: Mesh, pressure: str = "q1") -> MixedSpace:
    """Construct the mixed Q2 velocity / chosen pressure space."""
    if pressure not in PRESSURES:
        raise GeometryError(f"unknown pressure space {pressure!r}")
    nv = mesh.n_vnodes
    n_u = 2 * nv
    if pressure == "q1":
        n_p = mesh.pnode_xy.shape[0]
        cell_pdofs = mesh.cell_pnodes
    else:
        n_p = 3 * mesh.n_cells
        cell_pdofs = (3 * np.arange(mesh.n_cells)[:, None]
                      + np.arange(3)[None, :]).astype(np.int64)

    fixed = np.zeros(nv, dtype=bool)
    values = np.zeros((2, nv))
    for tag in mesh.boundary.values():
        if tag.kind != "dirichlet":
            continue
        fixed[tag.vnodes] = True
        if tag.profile is not None:
            ux, uy = tag.profile(*mesh.vnode_xy[tag.vnodes].T)
            values[0, tag.vnodes], values[1, tag.vnodes] = ux, uy
    nodes = np.nonzero(fixed)[0]
    dirichlet = np.concatenate([nodes, nv + nodes])
    values = values[:, nodes].ravel()
    mask = np.ones(n_u, dtype=bool)
    mask[dirichlet] = False
    interior = np.nonzero(mask)[0]
    return MixedSpace(mesh, pressure, n_u, n_p, dirichlet, values, interior, cell_pdofs)
