"""Internal batched numerics: one block budget, row blocks, an exponential
sum factored over a tensor grid, flat meshes and Gauss-Legendre panel rules.

Panels are sized to the fastest oscillation of the integrand (in cycles per
unit length): 1.25 cycles a panel, which a 16-point rule takes to rounding.
Node layout is deterministic, which keeps every downstream sum reproducible.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import TooLarge

# max entries (rows x row size) of one vectorized block; read at call time
BLOCK_BUDGET = 4_000_000
# points of the Gauss-Legendre rule on each panel
ORDER = 16
# panels per unit length for slowly oscillating integrands
MIN_PANELS_PER_UNIT = 3.0
# panels per cycle of the integrand's highest frequency plus one
PANELS_PER_CYCLE = 0.8


def mesh(axes) -> np.ndarray:
    """Flat (m, len(axes)) array of all combinations of axis values, in lex order."""
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(axes))


def row_blocks(n_rows: int, row_size: int):
    """Slices covering ``range(n_rows)``, each holding at most
    ``BLOCK_BUDGET`` entries of ``row_size`` (and at least one row)."""
    step = max(1, BLOCK_BUDGET // max(1, row_size))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def grid_exp_sum(coeffs: np.ndarray, shifts, x) -> np.ndarray:
    """sum_j c_j exp(-2 pi i x . s_j) where one side, ``shifts`` or ``x``, is a
    tensor grid given by its d axes (coefficients or result on the grid, in
    ``mesh`` order) and the other an (n, d) array.  The phase factors over the
    axes, so a point of the other side takes sum_a n_a exponentials, and the
    sum contracts one axis at a time; blocks of the first grid axis and of the
    other side keep every array within ``BLOCK_BUDGET`` entries."""
    grid_out = isinstance(shifts, np.ndarray)
    axes, other = (x, shifts) if grid_out else (shifts, x)
    sizes = [len(a) for a in axes]
    inner, mid = math.prod(sizes[1:]), math.prod(sizes[1:-1])
    out = np.zeros((sizes[0], inner) if grid_out else len(other), dtype=complex)
    for rows in row_blocks(sizes[0], inner):
        first = axes[0][rows]
        for cols in row_blocks(len(other), max(first.size * mid, *sizes)):
            # (cols, n_a) tables: along a row the phase moves smoothly, which
            # exp takes faster than the jumps between points of the other side
            *lead, last = (np.exp(-2j * np.pi * np.outer(other[cols, i], a))
                           for i, a in enumerate([first, *axes[1:]]))
            if grid_out:  # (cols, rows, n_1, ..., n_(d-2)) times the last axis
                acc = coeffs[cols]
                for table in lead:
                    acc = np.einsum("k...,kj->k...j", acc, table)
                out[rows] += (acc.reshape(len(acc), -1).T @ last).reshape(-1, inner)
            else:  # the last axis, then the others from the back
                acc = last @ np.reshape(coeffs, (sizes[0], -1))[rows].reshape(-1, last.shape[1]).T
                for table in reversed(lead):
                    acc = np.einsum("kij,kj->ki", acc.reshape(len(acc), -1, table.shape[1]), table)
                out[cols] += acc[:, 0]
    return out.ravel()


@lru_cache(maxsize=1)
def _gl_nodes():
    # numpy.polynomial loads on first use, not with the package
    return np.polynomial.legendre.leggauss(ORDER)


def _panel_rule(a: float, b: float, n_panels: int):
    """Composite Gauss-Legendre nodes and weights on n_panels equal panels of [a, b]."""
    x, w = _gl_nodes()
    edges = np.linspace(a, b, n_panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def grid_blocks(lower, upper, osc_freq: float):
    """Tensor-product panel rule on the box prod_i [lower_i, upper_i], walked in
    blocks of its first axis: yields (axes, points, weights), the block's d node
    axes and, in their ``mesh`` order, its (m, d) points and their weights.

    ``osc_freq`` is the highest frequency of the integrand in cycles per unit;
    an axis gets ``PANELS_PER_CYCLE`` panels per cycle of ``osc_freq + 1``, and
    at least ``MIN_PANELS_PER_UNIT`` per unit length.
    A block holds at most ``BLOCK_BUDGET`` points (and at least one row).  An
    axis's nodes are held whole, and the walk's time grows with its points, so
    a rule with more than ``BLOCK_BUDGET`` nodes on an axis or ORDER^2 times
    that many points raises TooLarge before any node is laid.
    """
    if np.any(np.asarray(upper) <= lower):
        raise ValueError("empty integration interval")
    per_unit = max(MIN_PANELS_PER_UNIT, PANELS_PER_CYCLE * (abs(osc_freq) + 1.0))
    panels = [max(1, math.ceil((b - a) * per_unit)) for a, b in zip(lower, upper)]
    nodes = [ORDER * p for p in panels]
    if max(nodes) > BLOCK_BUDGET or math.prod(nodes) > ORDER**2 * BLOCK_BUDGET:
        raise TooLarge(f"panel rule needs {nodes} nodes per axis, {math.prod(nodes):.3g} points; "
                       f"the caps are {BLOCK_BUDGET} per axis and {ORDER**2 * BLOCK_BUDGET} in all")
    (first, first_w), *rest = map(_panel_rule, lower, upper, panels)
    for rows in row_blocks(first.size, math.prod(n.size for n, _ in rest)):
        axes = [first[rows], *(n for n, _ in rest)]
        yield axes, mesh(axes), math.prod(np.ix_(first_w[rows], *(w for _, w in rest))).ravel()
