"""Block edges of the batched kernels: a tiny block budget splits every
blocked evaluation into many blocks and must not change its result."""

import numpy as np
import pytest

import latticeframes as lf
from latticeframes import _integrate

_SHEAR = lf.new_lattice([[1.0, 1.0], [0.0, 1.0]])


def _sampled():
    # 65 complex samples: at a budget of 1000 blocks hold 15 rows, the last fewer
    xs = np.arange(-1.0, 1.0 + 1 / 64, 1 / 32)
    return lf.SampledSpatial((1.0 - np.abs(xs)) * np.exp(2j * xs), [xs[0]], 1 / 32,
                             support_radius=16.0)


def _synthesis():
    g = lf.Gaussian(1.0, dim=2)
    c = lf.CoefficientVector({(i, j): complex(1 + i, j - 0.5) for i in (-1, 0, 1)
                              for j in (-1, 0, 1)})
    return lf.synthesis_norm(g, _SHEAR, c, lf.compute_phi(g, _SHEAR, 16))


_EVALUATIONS = {
    "sampled_fourier": lambda: _sampled().fourier(np.linspace(-3.0, 3.0, 41)[:, None]),
    "sampled_autocorrelation": lambda: _sampled().autocorrelation(
        np.linspace(-2.0, 2.0, 41)[:, None]),
    "direct_table": lambda: lf.compute_phi(lf.Gaussian(1.0, dim=2), _SHEAR, 16).values,
    # Gaussians take the dual route; sampled data keeps the lattice sum, here
    # 33 terms of 64 points, which a budget of 1000 splits as 15 + 15 + 3
    "direct_table_sampled": lambda: lf.compute_phi(
        _sampled(), lf.new_lattice([[1.0]]), 64).values,
    "synthesis_norm": lambda: np.array(_synthesis()),
}


@pytest.mark.parametrize("name", sorted(_EVALUATIONS))
def test_small_blocks_match_default_budget(name, monkeypatch):
    default = _EVALUATIONS[name]()
    monkeypatch.setattr(_integrate, "BLOCK_BUDGET", 1000)
    np.testing.assert_allclose(_EVALUATIONS[name](), default, rtol=0, atol=1e-12)
