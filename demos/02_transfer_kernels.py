#!/usr/bin/env python3
"""The exact solution of the layered line, assembled from transfer matrices.

A line with sigma = a_i^{-2} on consecutive intervals scatters waves at every
jump.  The script builds the 2x2 transfer matrices, inverts the denominator
entry in the Wiener algebra, and evaluates the resulting kernel solution on
the left ray, comparing it against an independent Crank-Nicolson run.
"""
import numpy as np

from graphlse import (
    EvolutionConfig,
    PiecewiseCoefficient,
    chain_product,
    determinant_product,
    evolve_line_sigma,
    invert_E,
    line_grid,
    solve_negative_halfline,
)

a = (1.0, 2.0, 1.0)
sigma = PiecewiseCoefficient(a, l=1.0)
print(f"layers a = {a}:   gamma = {tuple(round(g, 4) for g in sigma.gamma)}")

M = chain_product(2, 1, 0.7, sigma)
print(f"|A|^2 - |B|^2 at xi=0.7: {abs(M[0,0])**2 - abs(M[1,0])**2:.12f}"
      f"  (layer product {determinant_product(2, 1, sigma):.12f})")

series = invert_E(sigma, K=24)
print(f"Wiener inversion: {len(series.poly.terms)} terms, certified contraction rho = {series.rho:.12f}, "
      f"tail bound rho^(K+1)/(1-rho) = {series.tail_bound:.2e}")
grid = np.linspace(-12, 12, 2048)
print(f"residual |S * conj(E) - 1| on a frequency grid: {series.residual_on(grid):.2e}")

u0 = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
nodes = line_grid(40.0, 40.0, 0.02)
fd = evolve_line_sigma(u0(nodes), sigma, nodes, 1.0, EvolutionConfig(dt=5e-4))
sel = (nodes >= -20.0) & (nodes <= 0.0)
xs = nodes[sel]
kernel = solve_negative_halfline((nodes, u0(nodes)), 1.0, xs, series)
err = np.sqrt(np.trapezoid(np.abs(kernel - fd[sel]) ** 2, xs) / np.trapezoid(np.abs(fd[sel]) ** 2, xs))
print(f"kernel representation vs finite differences on [-20, 0]: rel L2 = {err:.2e}")
