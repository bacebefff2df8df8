"""Internal batched numerics: one block budget, row blocks, a blocked
exponential sum, flat meshes and composite Gauss-Legendre rules.

Panels are sized to the fastest oscillation of the integrand (in cycles per
unit length) so a fixed-order rule per panel stays spectrally accurate.
Node layout is deterministic, which keeps every downstream sum reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# max entries (rows x row size) of one vectorized block; read at call time
BLOCK_BUDGET = 4_000_000
# points of the Gauss-Legendre rule on each panel
ORDER = 16
# panels per unit length for slowly oscillating integrands
MIN_PANELS_PER_UNIT = 3.0


def mesh(axes) -> np.ndarray:
    """Flat (m, len(axes)) array of all combinations of axis values, in lex order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def row_blocks(n_rows: int, row_size: int):
    """Slices covering ``range(n_rows)``, each holding at most
    ``BLOCK_BUDGET`` entries of ``row_size`` (and at least one row)."""
    step = max(1, BLOCK_BUDGET // max(1, row_size))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def exp_sum(coeffs: np.ndarray, shifts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j c_j exp(-2 pi i x . s_j) at (m, d) points x for coefficients c_j
    and (n, d) shifts s_j; each block of phases is a temporary freed before the next."""
    out = np.empty(x.shape[0], dtype=complex)
    for sl in row_blocks(x.shape[0], shifts.shape[0]):
        out[sl] = np.exp(-2j * np.pi * (x[sl] @ shifts.T)) @ coeffs
    return out


@lru_cache(maxsize=1)
def _gl_nodes():
    # numpy.polynomial loads on first use, not with the package
    return np.polynomial.legendre.leggauss(ORDER)


def panel_nodes(a: float, b: float, osc_freq: float, density: float = 3.0):
    """Composite Gauss-Legendre nodes and weights on [a, b].

    ``osc_freq`` is the highest frequency of the integrand in cycles per unit;
    ``density`` sets panels per cycle (a 16-point rule stays well below 1e-12
    even at one panel per cycle, so low densities trade margin for speed).
    """
    if b <= a:
        raise ValueError("empty integration interval")
    per_unit = max(MIN_PANELS_PER_UNIT, density * (abs(osc_freq) + 1.0))
    n_panels = max(1, int(np.ceil((b - a) * per_unit)))
    x, w = _gl_nodes()
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def grid_nodes(lower, upper, osc_freq: float, density: float = 3.0):
    """Tensor-product panel rule on the box prod_i [lower_i, upper_i].

    Returns (points, weights) with points of shape (m, d).
    """
    rules = [panel_nodes(a, b, osc_freq, density=density) for a, b in zip(lower, upper)]
    return mesh([n for n, _ in rules]), np.prod(mesh([w for _, w in rules]), axis=1)
