#!/usr/bin/env python3
"""Deterministic baselines: steady flow and leading eigenvalues for both benchmarks.

Solves the steady problem at the nominal viscosity (no randomness), then
computes the rightmost eigenvalues of the linearized operator, with the
mesh, solver and eigensolver settings of the shipped configurations:
``configs/*_desk.yaml`` at refinement level 1, ``configs/*_full.yaml`` at
level 2.  At their reference viscosities the two flows bracket the
critical point from opposite sides: the obstacle wake carries a complex
pair with a small positive real part, while the expansion step keeps a
real leading mode just below zero.

Refinement level 1 runs in under a second per case and is fine for a
first look.  Level 2 reproduces the reference values quoted in the
README at a few seconds per solve.
"""

import argparse
import time
from pathlib import Path

from flowstab.assembly import SpatialField
from flowstab.config import build_mesh, build_space_for, load_config
from flowstab.eigen import ritz_to_csv
from flowstab.simulate import stability

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: refinement level -> shipped configuration suffix
SCALE = {1: "desk", 2: "full"}


def run_case(name, refine, csv_path=None):
    config = load_config(CONFIGS / f"{name}_{SCALE[refine]}.yaml")
    mesh = build_mesh(config)
    space = build_space_for(config, mesh)
    print(f"--- {name} (refine {refine}) ---")
    print(f"velocity dofs {space.n_u}, pressure dofs {space.n_p}, "
          f"nu1 = {config.nu1:.6g}")

    start = time.perf_counter()
    steady, eig = stability(mesh, space, SpatialField.constant(mesh, config.nu1),
                            config.solver, config.k, config.eigen_seed)
    lam = eig.eigenvalue
    print(f"steady solve and eigensolve ({eig.method}, k={eig.k}): "
          f"{time.perf_counter() - start:.2f} s, "
          f"steady residual {steady.residual:.2e}")
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
    parser.add_argument("--refine", type=int, choices=(1, 2), default=1,
                        help="mesh refinement level: 1 reads the desk "
                             "configs, 2 the full ones (default 1)")
    parser.add_argument("--csv", default=None,
                        help="write the Ritz values of the last case here")
    args = parser.parse_args()

    names = ["obstacle", "step"] if args.benchmark == "both" else [args.benchmark]
    for name in names:
        run_case(name, args.refine, csv_path=args.csv)


if __name__ == "__main__":
    main()
