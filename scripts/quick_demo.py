#!/usr/bin/env python3
"""Minute-scale demo: collapse of a super-critical bump onto its mesa.

Runs the implicit diffusion solver at a few exponents from the same
super-critical datum and prints the distance to the obstacle-problem
projection, which the runs approach as the exponent grows.
"""

import numpy as np

from bean_limit.datagen import BumpSpec, bump_field
from bean_limit.fields import GridSpec, PowerLaw
from bean_limit.obstacle import collapse_profile
from bean_limit.pme import PmeConfig, PmeProblem, pme_solve


def main():
    grid = GridSpec(2.0, 64)
    f = bump_field(grid, BumpSpec(height=1.5, radius=1.4))
    v_limit, mask, _ = collapse_profile(f)
    h2 = grid.spacing ** 2
    print(f"datum peak 1.5, mass {h2 * np.sum(f.values):.4f}")
    print(f"projection plateau area {h2 * np.count_nonzero(mask):.4f}, "
          f"mass {h2 * np.sum(v_limit.values):.4f}")
    for m in (8, 16, 32, 64):
        t_m = 1.0 / m
        problem = PmeProblem(grid=grid, law=PowerLaw(m), u0=f, forcing=None, horizon=t_m)
        sol = pme_solve(problem, PmeConfig(dt_init=t_m / 10))
        d = h2 * np.sum(np.abs(sol.snapshots[-1][1].values - v_limit.values))
        print(f"m={m:3d}: distance of u(1/m) to the projection = {d:.4f}")


if __name__ == "__main__":
    main()
