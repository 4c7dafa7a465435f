#!/usr/bin/env python3
"""Poke at the random viscosity models before putting a solver behind them.

Builds the correlated field basis on the obstacle mesh, then compares the
two closure choices: the lognormal model stays positive no matter how
large the fluctuations get, while the affine model starts producing
negative fields once the coefficient of variation approaches the mean.

The mesh, viscosity and correlation lengths are those of
``configs/obstacle_desk.yaml``.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from flowstab.config import build_kl, build_mesh, build_model, load_config
from flowstab.errors import PositivityError
from flowstab.viscosity import build_affine

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "obstacle_desk.yaml"
N_DRAWS = 200


def main():
    config = load_config(CONFIG)
    nu1 = config.nu1
    mesh = build_mesh(config)
    kl = build_kl(replace(config, m=6), mesh)
    print("mode variances (descending):", np.round(kl.eigenvalues, 4))
    total = kl.eigenvalues.sum()
    print(f"first two modes carry {kl.eigenvalues[:2].sum() / total:.0%} "
          "of the retained variance")
    print()

    # Pointwise mean matching: averaging lognormal draws should recover
    # the nominal viscosity everywhere, up to Monte Carlo noise.
    kl2 = build_kl(config, mesh)
    model = build_model(config, kl2, 0.10)
    print("lognormal model:", model.describe())
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(N_DRAWS):
        acc = acc + model.evaluate(rng.standard_normal(config.m))
    dev = np.abs(acc / N_DRAWS / nu1 - 1.0).max()
    print(f"max pointwise |sample mean / nu1 - 1| over {N_DRAWS} draws: "
          f"{dev:.3f} (sampling scale ~{0.10 / np.sqrt(N_DRAWS):.3f})")
    print()

    print("affine model positivity, uniform germs on [-1, 1]:")
    print("  cov   rejected    min field / nu1")
    rng = np.random.default_rng(3)
    for cov in (0.1, 0.3, 0.5, 0.7):
        affine = build_affine(nu1, cov, kl2)
        fails = 0
        vmin = np.inf
        for _ in range(N_DRAWS):
            xi = rng.uniform(-1.0, 1.0, config.m)
            try:
                vmin = min(vmin, affine.evaluate(xi).min())
            except PositivityError:
                fails += 1
        print(f"  {cov:.1f}   {fails:3d}/{N_DRAWS}     {vmin / nu1:8.3f}")
    print()

    big = build_model(config, kl2, 0.7)
    vmin = np.inf
    rng = np.random.default_rng(3)
    for _ in range(N_DRAWS):
        vmin = min(vmin, big.evaluate(rng.standard_normal(config.m)).min())
    print(f"lognormal at cov 0.7 over {N_DRAWS} draws: min field "
          f"{vmin / nu1:.3f} nu1, no rejections by construction")


if __name__ == "__main__":
    main()
