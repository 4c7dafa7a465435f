#!/usr/bin/env python3
"""Deterministic baselines: steady flow and leading eigenvalues for both benchmarks.

Solves the steady problem at the nominal viscosity (no randomness), then
computes the rightmost eigenvalues of the linearized operator.  At their
reference viscosities the two flows bracket the critical point from
opposite sides: the obstacle wake carries a complex pair with a small
positive real part, while the expansion step keeps a real leading mode
just below zero.

Refinement level 1 runs in under a second per case and is fine for a
first look.  Level 2 reproduces the reference values quoted in the
README at a few seconds per solve.
"""

import argparse
import time

from flowstab.assembly import SpatialField
from flowstab.eigen import build_problem, rightmost, ritz_to_csv
from flowstab.meshes import build_space, obstacle_mesh, step_mesh
from flowstab.steady import SolverSettings, build_operators, solve_steady

CASES = {
    "obstacle": {"nu1": 5.36193e-3, "pressure": "q1"},
    "step": {"nu1": 4.5455e-3, "pressure": "pm1"},
}


def make_case(name, refine):
    if name == "obstacle":
        # Wake-graded spacing and a wider Ritz window only start to matter
        # once the leading pair sits near the axis, i.e. from level 2 on.
        stretch = 5.0 if refine >= 2 else 1.0
        mesh = obstacle_mesh(refine, stretch=stretch)
        k = 48 if refine >= 2 else 24
        settings = SolverSettings()
    else:
        mesh = step_mesh(refine)
        k = 24
        settings = SolverSettings(picard_steps=20, newton_steps=20)
    return mesh, k, settings


def run_case(name, refine, csv_path=None):
    case = CASES[name]
    mesh, k, settings = make_case(name, refine)
    space = build_space(mesh, pressure=case["pressure"])
    print(f"--- {name} (refine {refine}) ---")
    print(f"velocity dofs {space.n_u}, pressure dofs {space.n_p}, "
          f"nu1 = {case['nu1']:.6g}")

    ops = build_operators(mesh, space, SpatialField.constant(mesh, case["nu1"]))
    start = time.perf_counter()
    steady = solve_steady(ops, settings)
    t_solve = time.perf_counter() - start
    print(f"steady solve: {t_solve:.2f} s, residual {steady.residual:.2e}")

    problem = build_problem(ops, steady)
    start = time.perf_counter()
    eig = rightmost(problem, k=k)
    t_eig = time.perf_counter() - start
    lam = eig.eigenvalue
    print(f"eigensolve ({eig.method}, k={k}): {t_eig:.2f} s")
    print(f"rightmost eigenvalue: {lam.real:+.6e} {lam.imag:+.6e}i "
          f"(residual {eig.residual:.1e})")

    # skip the rightmost value and its conjugate partner
    trailing = [v for v in sorted(eig.candidates, key=lambda v: -v.real)
                if abs(v - lam) > 1e-12 and abs(v - lam.conjugate()) > 1e-12][:3]
    for v in trailing:
        print(f"   next: {v.real:+.6e} {v.imag:+.6e}i")
    if lam.real >= 0:
        print("=> base flow is linearly unstable at this viscosity")
    else:
        print("=> base flow is linearly stable at this viscosity")

    if csv_path is not None:
        ritz_to_csv(eig, csv_path)
        print(f"wrote Ritz values to {csv_path}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", choices=["obstacle", "step", "both"],
                        default="both")
    parser.add_argument("--refine", type=int, default=1,
                        help="mesh refinement level (default 1; 2 matches "
                             "the reference values)")
    parser.add_argument("--csv", default=None,
                        help="write the Ritz values of the last case here")
    args = parser.parse_args()

    names = ["obstacle", "step"] if args.benchmark == "both" else [args.benchmark]
    for name in names:
        run_case(name, args.refine, csv_path=args.csv)


if __name__ == "__main__":
    main()
