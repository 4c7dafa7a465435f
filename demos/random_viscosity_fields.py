#!/usr/bin/env python3
"""Poke at the random viscosity models before putting a solver behind them.

Builds the correlated field basis on the obstacle mesh, then compares the
two closure choices: the lognormal model stays positive no matter how
large the fluctuations get, while the affine model starts producing
negative fields once the coefficient of variation approaches the mean.
"""

import numpy as np

from flowstab.errors import PositivityError
from flowstab.meshes import obstacle_mesh
from flowstab.randomfield import kl_decompose
from flowstab.viscosity import build_affine, build_lognormal

NU1 = 5.36193e-3
LX, LY = 2.0, 0.5   # correlation lengths, quarter of width and height
N_DRAWS = 200


def main():
    mesh = obstacle_mesh(1)
    kl = kl_decompose(mesh, 6, 1.0, LX, LY)
    print("mode variances (descending):", np.round(kl.eigenvalues, 4))
    total = kl.eigenvalues.sum()
    print(f"first two modes carry {kl.eigenvalues[:2].sum() / total:.0%} "
          "of the retained variance")
    print()

    # Pointwise mean matching: averaging lognormal draws should recover
    # the nominal viscosity everywhere, up to Monte Carlo noise.
    kl2 = kl_decompose(mesh, 2, 1.0, LX, LY)
    model = build_lognormal(NU1, 0.10, kl2, 2, 3)
    print("lognormal model:", model.describe())
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(N_DRAWS):
        acc = acc + model.evaluate(rng.standard_normal(2)).values
    dev = np.abs(acc / N_DRAWS / NU1 - 1.0).max()
    print(f"max pointwise |sample mean / nu1 - 1| over {N_DRAWS} draws: "
          f"{dev:.3f} (sampling scale ~{0.10 / np.sqrt(N_DRAWS):.3f})")
    print()

    print("affine model positivity, uniform germs on [-1, 1]:")
    print("  cov   rejected    min field / nu1")
    rng = np.random.default_rng(3)
    for cov in (0.1, 0.3, 0.5, 0.7):
        affine = build_affine(NU1, cov, kl2, 2)
        fails = 0
        vmin = np.inf
        for _ in range(N_DRAWS):
            xi = rng.uniform(-1.0, 1.0, 2)
            try:
                vmin = min(vmin, affine.evaluate(xi).values.min())
            except PositivityError:
                fails += 1
        print(f"  {cov:.1f}   {fails:3d}/{N_DRAWS}     {vmin / NU1:8.3f}")
    print()

    big = build_lognormal(NU1, 0.7, kl2, 2, 3)
    vmin = np.inf
    rng = np.random.default_rng(3)
    for _ in range(N_DRAWS):
        vmin = min(vmin, big.evaluate(rng.standard_normal(2)).values.min())
    print(f"lognormal at cov 0.7 over {N_DRAWS} draws: min field "
          f"{vmin / NU1:.3f} nu1, no rejections by construction")


if __name__ == "__main__":
    main()
