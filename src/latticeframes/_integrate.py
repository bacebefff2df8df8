"""Internal batched numerics: one block budget, row blocks, one complex
exponential (``cis``, its phase reduced mod 1 before cos and sin), an
exponential sum of grid coefficients at scattered points, factored over the
grid's axes, flat meshes and Gauss-Legendre panel rules.

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
# max points of one quadrature and terms x points of one lattice sum; fixed at import
POINT_CAP = ORDER**2 * BLOCK_BUDGET


def mesh(axes) -> np.ndarray:
    """Flat (m, len(axes)) array of all combinations of axis values, in lex order."""
    axes = [np.asarray(a) for a in axes]
    out = np.empty((math.prod(a.size for a in axes), len(axes)), dtype=np.result_type(*axes))
    # column i of the (n_1, ..., n_d, d) view takes axis i broadcast along the others
    grid = out.reshape(*(a.size for a in axes), len(axes))
    for i, a in enumerate(axes):
        grid[..., i] = a.reshape(-1, *[1] * (len(axes) - 1 - i))
    return out


def row_blocks(n_rows: int, row_size: int):
    """Slices covering ``range(n_rows)``, each holding at most
    ``BLOCK_BUDGET`` entries of ``row_size`` (and at least one row)."""
    step = max(1, BLOCK_BUDGET // max(1, row_size))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def cis(t: np.ndarray) -> np.ndarray:
    """exp(-2 pi i t) at a float array of phases t in cycles, overwritten; the
    reduction t - rint(t) is exact (Sterbenz), so a large phase loses no digits."""
    t -= np.rint(t)
    t *= -2.0 * np.pi
    out = np.empty(t.shape, dtype=complex)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


def grid_exp_sum(coeffs: np.ndarray, axes, x) -> np.ndarray:
    """sum_j c_j exp(-2 pi i x . s_j) at an (n, d) array of points x, for
    coefficients on the tensor grid of shifts s_j given by its d ``axes`` (in
    ``mesh`` order).  The phase factors over the axes, so a point takes
    sum_a n_a exponentials, and the sum contracts one axis at a time, the last
    first; blocks of the first grid axis and of the points keep every array
    within ``BLOCK_BUDGET`` entries."""
    sizes = [len(a) for a in axes]
    mid = math.prod(sizes[1:-1])
    grid = np.reshape(coeffs, (sizes[0], -1))
    out = np.zeros(len(x), dtype=complex)
    for rows in row_blocks(sizes[0], math.prod(sizes[1:])):
        first = axes[0][rows]
        for cols in row_blocks(len(x), max(first.size * mid, *sizes)):
            # (cols, n_a) tables: cos and sin take a row's smooth run of phases
            # 20-35% faster than the transposed table (numpy 2.4, x86-64 Xeon)
            *lead, last = (cis(np.outer(x[cols, i], a)) for i, a in enumerate([first, *axes[1:]]))
            acc = last @ grid[rows].reshape(-1, last.shape[1]).T
            for table in reversed(lead):
                acc = np.einsum("kij,kj->ki", acc.reshape(len(acc), -1, table.shape[1]), table)
            out[cols] += acc[:, 0]
    return out


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
    a rule with more than ``BLOCK_BUDGET`` nodes on an axis or ``POINT_CAP``
    points raises TooLarge before any node is laid.
    """
    if np.any(np.asarray(upper) <= lower):
        raise ValueError("empty integration interval")
    per_unit = max(MIN_PANELS_PER_UNIT, PANELS_PER_CYCLE * (abs(osc_freq) + 1.0))
    panels = [max(1, math.ceil((b - a) * per_unit)) for a, b in zip(lower, upper)]
    nodes = [ORDER * p for p in panels]
    if max(nodes) > BLOCK_BUDGET or math.prod(nodes) > POINT_CAP:
        raise TooLarge(f"panel rule needs {nodes} nodes per axis, {math.prod(nodes):.3g} points; "
                       f"the caps are {BLOCK_BUDGET} per axis and {POINT_CAP} in all")
    (first, first_w), *rest = map(_panel_rule, lower, upper, panels)
    for rows in row_blocks(first.size, math.prod(n.size for n, _ in rest)):
        axes = [first[rows], *(n for n, _ in rest)]
        yield axes, mesh(axes), math.prod(np.ix_(first_w[rows], *(w for _, w in rest))).ravel()
