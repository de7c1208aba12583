"""Red-black reduction of the five-point system (D - c N) x = b.

D is diagonal, c > 0 and N the neighbour sum with zero ghosts; pme's
Newton Jacobian diag_jac - (dt/h^2) N has this form.  N couples only
cells of opposite colour, red (i + j even) and black (i + j odd), so
eliminating the red cells leaves the Schur complement

    S = D_b - c^2 N_br D_r^-1 N_rb

on the black cells.  CG solves S x_b = b_b + c N_br(D_r^-1 b_r) with the
Jacobi preconditioner diag S = D_b - c^2 N_br(1/D_r), and the red cells
follow by back-substitution, x_r = D_r^-1 (b_r + c N_rb x_b).  The red
residual of that x is zero to rounding, so the full residual is the
reduced one.  For a matrix with this "Property A", CG on the reduced
system converges like Jacobi-PCG on the whole grid in half the
iterations (Reid, SIAM J. Numer. Anal. 9 (1972) 325-332; Hageman and
Young, Applied Iterative Methods, 1981, ch. 9), on half-size vectors.

A colour is its two parity planes w[a::2, b::2] (red (0, 0) and (1, 1),
black (0, 1) and (1, 0)), plane a of a (2, (R + 2)(C + 1)) buffer,
R = C = ceil(n/2).  A plane stores its cells in rows of C + 1 slots
between a zero top and a zero bottom row, so the last slot of each row,
and the cells past the grid when n is odd, are ghosts.  The horizontal
neighbours of plane (a, b) are then plane a of the other colour at flat
offsets b - 1 and b, the vertical ones plane 1 - a at (a - 1)(C + 1) and
a(C + 1); each reads a ghost where the grid ends.  Every vector CG sees
is zero on the ghosts.  A neighbour sum writes junk into its output's
ghosts, which a factor that is zero there clears: 1/D_r or c^2/D_r on
red, the black-cell mask on black.  Strided copies move the cells of a
grid array into the planes and back.

The layout lives apart from pme because compiling a module costs memory
in proportion to its code, and without a bytecode cache the compile of
pme is an import-time high-water mark of the process.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np


def _add_neighbors(plan) -> None:
    """Run a plan of RedBlackSystem._neighbor_plan: three np.add calls per plane."""
    for out, left, right, up, down in plan:
        np.add(left, right, out=out)
        out += up
        out += down


class RedBlackSystem:
    """The parity-plane layout and masks of one grid size, and the
    reduced solve on it.

    A solve allocates nine plane buffers, one by one, and frees them when
    it returns.  Kept between solves, they raised the traced peak memory
    of a Barenblatt run on n = 40 and 80 by 0.24 MB; one 9-plane block,
    above malloc's mmap threshold at n = 80, raised its peak resident set
    by 0.3 MB.  With these nine, the CG phase of a step holds less memory
    than Jacobi-PCG on the whole grid would.
    """

    def __init__(self, n: int):
        rows = (n + 1) // 2
        width = rows + 1
        size = (rows + 2) * width
        self.n, self.shape, self.planes_shape = n, (2, size), (2, rows + 2, width)
        # per plane q, red then black: the grid slice of its cells and their
        # (plane, rows, columns) block in a colour's buffer; which slots are
        # cells
        on = np.zeros((4, rows + 2, width), dtype=bool)
        self.cells = []
        for q in range(4):
            a, b = q % 2, (q // 2) ^ (q % 2)
            block = (a, slice(1, 1 + (n - a + 1) // 2), slice(0, (n - b + 1) // 2))
            on[q][block[1:]] = True
            self.cells.append(((slice(a, None, 2), slice(b, None, 2)), block))
        self.on_r, self.on_b = on[:2].reshape(self.shape), on[2:].reshape(self.shape)
        self.mask_b = self.on_b.astype(float)
        for mask in (self.on_r, self.on_b, self.mask_b):  # every solve on this size reads them
            mask.setflags(write=False)
        # per colour of the output and plane a (b = colour ^ a): the index of
        # the output's rows of cells, and of the four neighbour slices of the
        # other colour
        lo, hi = width, (rows + 1) * width
        self.plan_index = [
            [((a, slice(lo, hi)),
              (a, slice(lo + b - 1, hi + b - 1)), (a, slice(lo + b, hi + b)),
              (1 - a, slice(lo + (a - 1) * width, hi + (a - 1) * width)),
              (1 - a, slice(lo + a * width, hi + a * width)))
             for a, b in ((0, colour), (1, colour ^ 1))]
            for colour in (0, 1)
        ]

    def _neighbor_plan(self, src: np.ndarray, out: np.ndarray, colour: int) -> list:
        """Views for out = N src on out's rows of cells; out is of colour
        `colour`, src of the other."""
        return [(out[o], src[left], src[right], src[up], src[down])
                for o, left, right, up, down in self.plan_index[colour]]

    def _gather(self, full: np.ndarray, out: np.ndarray, colour: int) -> None:
        """The cells of one colour of a grid array into the planes of out."""
        planes = out.reshape(self.planes_shape)
        for grid, block in self.cells[2 * colour:2 * colour + 2]:
            planes[block] = full[grid]

    def solve(self, res: np.ndarray, res_norm: float, diag: np.ndarray, c: float,
              rtol: float, cg: Callable, max_iters: int) -> np.ndarray:
        """x with (diag - c N) x = -res to a full residual of at most
        rtol res_norm, res_norm = |res|_2, by cg(apply_op, b, apply_minv,
        rtol, max_iters) on S, at the relative target rtol res_norm / |b|."""
        # red: 1/D_r, c^2/D_r, the operator's c^2 D_r^-1 N_rb p; black: D_b,
        # the right side, 1/diag S, the operator's two outputs and the
        # preconditioner's
        inv_r, ci_r, t, d_b, rhs, inv_ds, dp, sp, z = (np.zeros(self.shape) for _ in range(9))
        black_plan = self._neighbor_plan(t, sp, 1)
        mask_b = self.mask_b
        self._gather(diag, t, 0)
        np.divide(1.0, t, out=inv_r, where=self.on_r)
        np.multiply(inv_r, c * c, out=ci_r)
        self._gather(diag, d_b, 1)
        # right side -(res_b + c N_br(D_r^-1 res_r)), zero on the ghosts
        self._gather(res, t, 0)
        t *= inv_r
        _add_neighbors(black_plan)
        self._gather(res, rhs, 1)
        np.multiply(sp, -c, out=sp)
        np.subtract(sp, rhs, out=rhs)
        rhs *= mask_b
        # diag S = D_b - N_br(c^2 / D_r) on the black cells
        _add_neighbors(self._neighbor_plan(ci_r, sp, 1))
        np.subtract(d_b, sp, out=sp)
        np.divide(1.0, sp, out=inv_ds, where=self.on_b)

        p_in, red_plan = None, None

        def apply_s(p: np.ndarray) -> np.ndarray:
            nonlocal p_in, red_plan
            if p is not p_in:  # pcg passes one p for a whole solve
                p_in, red_plan = p, self._neighbor_plan(p, t, 0)
            _add_neighbors(red_plan)
            np.multiply(t, ci_r, out=t)
            _add_neighbors(black_plan)
            np.multiply(sp, mask_b, out=sp)
            np.multiply(d_b, p, out=dp)
            return np.subtract(dp, sp, out=sp)

        def apply_minv(r: np.ndarray) -> np.ndarray:
            return np.multiply(r, inv_ds, out=z)

        snorm = math.sqrt(float(np.multiply(rhs, rhs, out=dp).sum()))
        x_b = cg(apply_s, rhs, apply_minv, rtol * res_norm / snorm if snorm else rtol, max_iters)
        # back-substitution x_r = D_r^-1 (c N_rb x_b - res_r) in t, res_r in
        # sp: the operator's buffers, written here before they are read, so
        # an operator call after cg returned changes nothing
        self._gather(res, sp, 0)
        _add_neighbors(self._neighbor_plan(x_b, t, 0))
        t *= c
        t -= sp
        t *= inv_r
        x = np.empty((self.n, self.n))
        planes = t.reshape(self.planes_shape), x_b.reshape(self.planes_shape)
        for q, (grid, block) in enumerate(self.cells):
            x[grid] = planes[q // 2][block]
        return x


@lru_cache(maxsize=1)
def red_black_system(n: int) -> RedBlackSystem:
    """The RedBlackSystem of n cells per side, kept while that size is in use."""
    return RedBlackSystem(n)
