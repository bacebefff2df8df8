"""Internal quadrature helpers: composite Gauss-Legendre rules.

Panels are sized to the fastest oscillation of the integrand (in cycles per
unit length) so a fixed-order rule per panel stays spectrally accurate.
Node layout is deterministic, which keeps every downstream sum reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# points of the Gauss-Legendre rule on each panel
ORDER = 16
# panels per unit length for slowly oscillating integrands
MIN_PANELS_PER_UNIT = 3.0


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


def grid_nodes(dim: int, radius: float, osc_freq: float, density: float = 3.0):
    """Tensor-product panel rule on [-radius, radius]^dim.

    Returns (points, weights) with points of shape (m, dim).
    """
    n1, w1 = panel_nodes(-radius, radius, osc_freq, density=density)
    pts = np.stack([g.ravel() for g in np.meshgrid(*[n1] * dim, indexing="ij")], axis=-1)
    return pts, np.prod(np.meshgrid(*[w1] * dim, indexing="ij"), axis=0).ravel()
