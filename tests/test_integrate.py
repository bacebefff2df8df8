"""Block edges of the batched kernels: a tiny block budget splits every
blocked evaluation into many blocks and must not change its result.  The
factored exponential sum is checked against the plain exponential matrix."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticeframes as lf
from latticeframes import _integrate

_SHEAR = lf.new_lattice([[1.0, 1.0], [0.0, 1.0]])
_SHEAR_3D = lf.new_lattice([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]])


def _sampled():
    # 65 complex samples: at a budget of 1000 blocks hold 15 rows, the last fewer
    xs = np.arange(-1.0, 1.0 + 1 / 64, 1 / 32)
    return lf.SampledSpatial((1.0 - np.abs(xs)) * np.exp(2j * xs), [xs[0]], 1 / 32,
                             support_radius=16.0)


def _sampled_2d():
    # 40 x 33 samples: at a budget of 1000 the grid splits 30 + 10 rows and the
    # frequencies 25 per block
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, 40), np.linspace(-1.0, 1.0, 33), indexing="ij")
    vals = np.maximum(0.0, 1.0 - np.abs(x)) * np.maximum(0.0, 1.0 - np.abs(y)) * np.exp(1j * x * y)
    return lf.SampledSpatial(vals, [-1.0, -1.0], 2.0 / 39, support_radius=8.0)


def _synthesis():
    g = lf.Gaussian(1.0, dim=2)
    c = lf.CoefficientVector({(i, j): complex(1 + i, j - 0.5) for i in (-1, 0, 1)
                              for j in (-1, 0, 1)})
    return lf.synthesis_norm(g, _SHEAR, c, lf.compute_phi(g, _SHEAR, 16))


def _synthesis_3d():
    # the box factors, so the direct route takes 1-d rules; the box table
    # takes the step route or, past one block, the lattice sum it equals bit
    # for bit
    g = lf.FrequencyBox([-0.2, -0.3, -0.25], [0.3, 0.25, 0.3])
    c = lf.CoefficientVector({(i, j, k): complex(1 + i - k, j + 0.5 * k) for i in (-1, 0, 1)
                              for j in (-1, 0, 1) for k in (-1, 0, 1)})
    return lf.synthesis_norm(g, _SHEAR_3D, c, lf.compute_phi(g, _SHEAR_3D, 16))


def _synthesis_sampled_2d():
    # sampled data has no axis factors, so the direct route keeps the blocked
    # 2-d mesh, here of 160 nodes per axis, six mesh rows a block at a budget
    # of 1000
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, 5), np.linspace(-0.75, 0.75, 4), indexing="ij")
    g = lf.SampledSpatial((1.0 - 0.5 * np.abs(x)) * np.exp(1j * (x - y)), [-1.0, -0.75], 0.5,
                          support_radius=1.0)
    c = lf.CoefficientVector({(i, j): complex(1 - j, i + 0.5) for i in (-1, 0, 1) for j in (0, 1)})
    return lf.synthesis_norm(g, _SHEAR, c, lf.compute_phi(g, _SHEAR, 16))


_EVALUATIONS = {
    "sampled_fourier": lambda: _sampled().fourier(np.linspace(-3.0, 3.0, 41)[:, None]),
    "sampled_fourier_d2": lambda: _sampled_2d().fourier(
        np.random.default_rng(3).uniform(-4.0, 4.0, (61, 2))),
    "sampled_autocorrelation": lambda: _sampled().autocorrelation(
        np.linspace(-2.0, 2.0, 41)[:, None]),
    "quadrature_cross_correlation_d2": lambda: lf.Sinc(2).cross_correlation(
        lf.Gaussian(0.7, 2), np.linspace(-1.5, 1.5, 34).reshape(17, 2)),
    "direct_table": lambda: lf.compute_phi(lf.Gaussian(1.0, dim=2), _SHEAR, 16).values,
    # Gaussians take the dual route; sampled data keeps the lattice sum, here
    # 33 terms of 64 points, which a budget of 1000 splits as 15 + 15 + 3
    "direct_table_sampled": lambda: lf.compute_phi(
        _sampled(), lf.new_lattice([[1.0]]), 64).values,
    "synthesis_norm": lambda: np.array(_synthesis()),
    "synthesis_norm_d3": lambda: np.array(_synthesis_3d()),
    "synthesis_norm_sampled_d2": lambda: np.array(_synthesis_sampled_2d()),
}


@pytest.mark.parametrize("name", sorted(_EVALUATIONS))
def test_small_blocks_match_default_budget(name, monkeypatch):
    default = _EVALUATIONS[name]()
    monkeypatch.setattr(_integrate, "BLOCK_BUDGET", 1000)
    np.testing.assert_allclose(_EVALUATIONS[name](), default, rtol=0, atol=1e-12)


def _naive_exp_sum(coeffs, shifts, x):
    return np.exp(-2j * np.pi * x @ shifts.T) @ coeffs


def _points(axes):
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# int and float axes as arrays and as tuples, empty ones included
_MESH_AXIS = st.one_of(
    st.lists(st.integers(-5, 5), max_size=4).map(lambda v: np.array(v, dtype=int)),
    st.lists(st.floats(-3.0, 3.0), max_size=4).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-5, 5), max_size=4).map(tuple),
    st.lists(st.floats(-3.0, 3.0), max_size=4).map(tuple),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_MESH_AXIS, min_size=1, max_size=3))
def test_mesh_matches_the_stacked_meshgrid(axes):
    got, want = _integrate.mesh(axes), _points(axes)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    np.testing.assert_array_equal(got, want)
    # a fresh array: writing to it leaves the axes alone
    assert got.flags.writeable
    assert not any(np.shares_memory(got, a) for a in axes if isinstance(a, np.ndarray))


@st.composite
def _exp_sum_case(draw):
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    n = draw(st.integers(1, 12))
    budget = draw(st.sampled_from([1, 7, 50, _integrate.BLOCK_BUDGET]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = [rng.uniform(-3.0, 3.0, size) for size in sizes]
    # points B k for integer k and a sheared basis B
    shear = np.eye(d) + np.triu(rng.uniform(-2.0, 2.0, (d, d)), 1)
    scattered = rng.integers(-3, 4, (n, d)) @ shear.T
    m = int(np.prod(sizes))
    coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return axes, scattered, coeffs, budget


@settings(max_examples=60, deadline=None)
@given(_exp_sum_case())
def test_grid_exp_sum_matches_exponential_matrix(case):
    # coefficients on the tensor grid at scattered points, at budgets that
    # split every contraction down to single rows and columns
    axes, scattered, c, budget = case
    default, _integrate.BLOCK_BUDGET = _integrate.BLOCK_BUDGET, budget
    try:
        got = _integrate.grid_exp_sum(c, axes, scattered)
    finally:
        _integrate.BLOCK_BUDGET = default
    want = _naive_exp_sum(c, _points(axes), scattered)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(c))


# exp(-2 pi i q / 4) for q mod 4
_QUARTER_TURNS = np.array([1.0, -1j, -1.0, 1j])


def test_grid_exp_sum_is_exact_at_large_quarter_integer_phases():
    # axes near +-1e6 on a quarter grid against integer vectors: every phase
    # x . s is an exact quarter-integer near 1e6 cycles, so each term is
    # exactly +-1 or +-i, which an exponential of 2 pi 1e6 radians misses by
    # about 1e-9
    rng = np.random.default_rng(5)
    axes = [1e6 + np.arange(5) / 4, -1e6 + 0.5 + np.arange(3) / 4]
    ints = rng.integers(-3, 4, (7, 2)).astype(float)
    turns = np.rint(4 * ints @ _points(axes).T).astype(np.int64) % 4  # (7, 15)
    c = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    got, want = _integrate.grid_exp_sum(c, axes, ints), _QUARTER_TURNS[turns] @ c
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(c))


def _pair(bound):
    return st.lists(st.integers(-bound, bound), min_size=2, max_size=2)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 2), log_inv_h=st.integers(0, 4), origin=_pair(512), xi=_pair(256),
       m=st.integers(-1000, 1000), axis=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
@example(d=1, log_inv_h=3, origin=[353, 0], xi=[40, 0], m=1000, axis=0, seed=0)
def test_sampled_fourier_shift_by_a_period_is_a_phase(d, log_inv_h, origin, xi, m, axis, seed):
    # fourier(xi + m e_a / h) = exp(-2 pi i m o_a / h) fourier(xi) for samples
    # at o + h j: with a dyadic step, origin (in eighths) and xi (in 64ths)
    # every phase is exact, so both sides agree to rounding; the example is
    # h = 1/8, o = 44.125 and m = 1000
    h, axis = 2.0**-log_inv_h, axis % d
    o, x = np.array(origin[:d]) / 8, np.array(xi[:d], dtype=float) / 64
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((5,) * d) + 1j * rng.standard_normal((5,) * d)
    g = lf.SampledSpatial(values, o, h)
    shifted = x.copy()
    shifted[axis] += m / h
    turn = (m * o[axis] / h) % 1.0  # exact: a dyadic fraction
    got = g.fourier(shifted[None])[0]
    want = np.exp(-2j * np.pi * turn) * g.fourier(x[None])[0]
    assert abs(got - want) <= 1e-13 * h**d * np.sum(np.abs(values))
