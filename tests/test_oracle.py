import math
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import latticeframes as lf
from latticeframes.errors import ConvergenceFailure, DegenerateSpan, TooLarge
from latticeframes.lattice import integer_box
from latticeframes.oracle import GramMatrix
from latticeframes.periodization import PeriodizationTable, compute_cross_phi, cross_phi_values

# seed for the randomized three-way agreement checks (documented so the suite
# is reproducible bit for bit)
RNG_SEED = 20260810


def test_gram_sinc_identity(unit_lattice):
    gram = lf.gram_matrix(lf.Sinc(1), unit_lattice, 2)
    assert np.max(np.abs(gram.dense() - np.eye(5))) < 1e-9


def test_gram_bspline_tridiagonal(unit_lattice):
    gram = lf.gram_matrix(lf.BSpline(1), unit_lattice, 2)
    dense = gram.dense().real
    expected = 2 / 3 * np.eye(5) + 1 / 6 * (np.eye(5, k=1) + np.eye(5, k=-1))
    assert np.max(np.abs(dense - expected)) < 1e-9


def test_gram_structure_invariants(unit_lattice):
    for g in (lf.BSpline(1), lf.Gaussian(1.0)):
        gram = lf.gram_matrix(g, unit_lattice, 3)
        dense = gram.dense()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-10  # Hermitian
        assert np.max(np.abs(np.diag(dense) - g.norm_squared())) < 1e-9
        # Toeplitz: entries depend only on the index difference
        for off in range(-3, 4):
            diag = np.diagonal(dense, offset=off)
            assert np.max(np.abs(diag - diag[0])) < 1e-12
            auto = lf.autocorrelation(g, unit_lattice, [off])
            assert diag[0] == pytest.approx(auto, abs=1e-9)


def test_gram_size_cap(unit_lattice):
    with pytest.raises(TooLarge):
        lf.gram_matrix(lf.Sinc(1), unit_lattice, 2048)


@pytest.mark.parametrize("half_width", [2.5, True, 0], ids=["float", "bool", "zero"])
def test_gram_matrix_takes_integer_half_widths_only(unit_lattice, half_width):
    with pytest.raises(ValueError, match=f"half_width must be an integer >= 1, got {half_width}"):
        lf.gram_matrix(lf.BSpline(1), unit_lattice, half_width)


def test_analysis_takes_integer_half_widths_only(unit_lattice):
    # a float radius once gave coefficients at half-integer shifts
    with pytest.raises(ValueError, match="radius must be an integer >= 0, got 2.5"):
        lf.analysis_coefficients(lf.BSpline(1), unit_lattice, lf.Gaussian(1.0), 2.5)


def test_gram_2d(unit_lattice):
    L = lf.new_lattice([[1.0, 1.0], [0.0, 1.0]])
    gram = lf.gram_matrix(lf.Sinc(2), L, 1)
    assert np.max(np.abs(gram.dense() - np.eye(9))) < 1e-9


# an off-centre frequency box has complex autocorrelations that are not even,
# so its Gram matrix differs from its transpose (by 0.10 to 0.28 here)
_COMPLEX_GRAM_LATTICES = [[[0.7]], [[1.0, 1.0], [0.0, 1.0]], (0.9 * np.eye(3)).tolist()]


@pytest.mark.parametrize("basis", _COMPLEX_GRAM_LATTICES)
def test_gram_orientation_complex_generator(basis):
    d = len(basis)
    L = lf.new_lattice(basis)
    g = lf.FrequencyBox([-0.2] * d, [0.35] * d)
    dense = lf.gram_matrix(g, L, 1).dense()
    assert np.max(np.abs(dense - dense.T)) > 0.1
    idx = integer_box(d, 1)
    for a in range(len(idx)):
        for b in range(len(idx)):
            ref = lf.autocorrelation(g, L, idx[b] - idx[a])
            assert abs(dense[a, b] - ref) <= 1e-14


@pytest.mark.parametrize("basis", _COMPLEX_GRAM_LATTICES)
def test_synthesis_quadratic_complex_generator(basis):
    d = len(basis)
    L = lf.new_lattice(basis)
    g = lf.FrequencyBox([-0.2] * d, [0.35] * d)
    rng = np.random.default_rng(RNG_SEED)
    ks = [tuple(int(v) for v in k) for k in integer_box(d, 1)]
    c = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in ks}
    # ||sum_k c_k f(. - B k)||^2 = sum_(j,k) c_j conj(c_k) <f, f(. + B (j - k))>
    explicit = sum(
        c[j] * np.conj(c[k]) * lf.autocorrelation(g, L, np.subtract(j, k))
        for j in ks for k in ks
    )
    table = lf.compute_phi(g, L, 16)
    _, _, q = lf.synthesis_norm(g, L, lf.CoefficientVector(c), table)
    assert abs(explicit.imag) <= 1e-12
    assert q == pytest.approx(explicit.real, abs=1e-12)


def test_gram_entry_beyond_stored_radius(unit_lattice):
    gram = lf.gram_matrix(lf.BSpline(1), unit_lattice, 3)
    assert gram.entry(0, 6) == pytest.approx(0.0, abs=1e-15)
    for n in (7, -7):
        with pytest.raises(KeyError):
            gram.entry(0, n)


def _random_coefficients(rng, dim, size):
    keys = rng.choice(integer_box(dim, 1), size=size, replace=False)
    return lf.CoefficientVector({tuple(int(v) for v in k): complex(*rng.standard_normal(2))
                                 for k in keys})


@pytest.mark.parametrize("g, basis", [(lf.BSpline(1, 2), [[1.0, 1.0], [0.0, 1.0]]),
                                      (lf.Gaussian(1.0, 3), np.eye(3).tolist())],
                         ids=["hat_shear", "gauss_d3"])
def test_synthesis_direct_route_per_axis(g, basis):
    # past the d-dimensional mesh: the hat on the shear needed 3.5e6 nodes per
    # axis and raised TooLarge, the d = 3 Gaussian took 1.4e7 points; per
    # axis both match the Gram quadratic form to the route's 1e-9
    L = lf.new_lattice(basis)
    c = _random_coefficients(np.random.default_rng(RNG_SEED), g.dim, 3**g.dim)
    direct, _, quadratic = lf.synthesis_norm(g, L, c, lf.compute_phi(g, L, 8))
    assert abs(direct - quadratic) <= 1e-9


_TENSOR_KINDS = {
    "box": lambda rng, d: lf.FrequencyBox(*(lambda lo: (lo, lo + rng.uniform(0.2, 1.0, d)))(
        rng.uniform(-0.6, 0.0, d))),
    "sinc": lambda rng, d: lf.Sinc(d),
    "bspline": lambda rng, d: lf.BSpline(int(rng.integers(1, 4)), d),
    "gaussian": lambda rng, d: lf.Gaussian(rng.uniform(0.5, 2.0), d),
}


@seed(RNG_SEED)
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_TENSOR_KINDS)), dim=st.integers(2, 3),
       draw=st.integers(0, 2**32 - 1))
def test_synthesis_direct_matches_quadratic_on_tensor_kinds(kind, dim, draw):
    # a well-conditioned basis, diag(s) (I + U / 4) with |U|_2 <= 3/4, and up
    # to four complex coefficients: the per-axis direct route is within its
    # 1e-9 of the Gram form, whose own rounding scales with (sum |c|)^2 ||f||^2
    rng = np.random.default_rng(draw)
    g = _TENSOR_KINDS[kind](rng, dim)
    basis = np.diag(rng.uniform(0.6, 1.5, dim)) @ (np.eye(dim) + rng.uniform(-0.25, 0.25,
                                                                            (dim, dim)))
    L = lf.new_lattice(basis.tolist())
    c = _random_coefficients(rng, dim, int(rng.integers(1, 5)))
    direct, _, quadratic = lf.synthesis_norm(g, L, c, lf.compute_phi(g, L, 8))
    mass = sum(abs(v) for v in c.entries.values())
    assert abs(direct - quadratic) <= 1e-9 + 1e-13 * mass**2 * g.norm_squared()


@pytest.mark.parametrize("d", [2, 3])
def test_synthesis_mesh_past_the_cap_fails_fast(d, mesh_only):
    # the hat without axis factors keeps the d-dimensional mesh: |fhat|^2
    # decays only like |xi|^-4 per axis, so the direct route would need
    # 870,000 nodes per axis in d = 2 (a 7.6e11-point mesh) and billions in
    # d = 3; the panel arithmetic alone shows it
    L = lf.new_lattice(np.eye(d).tolist())
    g, table = mesh_only(lf.BSpline(1, d)), lf.compute_phi(lf.BSpline(1, d), L, 8)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"nodes per axis, .* the caps are 4000000 per axis"):
        lf.synthesis_norm(g, L, lf.CoefficientVector({(0,) * d: 1.0}), table)
    assert time.perf_counter() - start < 1.0


def test_eigen_bounds_bspline(unit_lattice):
    lo, hi = lf.gram_eigen_bounds(lf.gram_matrix(lf.BSpline(1), unit_lattice, 32))
    assert 1 / 3 < lo < 1 / 3 + 0.01
    assert 1 - 0.01 < hi < 1
    # dense-solver oracle at a small size
    dense = lf.gram_matrix(lf.BSpline(1), unit_lattice, 8).dense()
    ref = np.linalg.eigvalsh(dense)
    lo8, hi8 = lf.gram_eigen_bounds(lf.gram_matrix(lf.BSpline(1), unit_lattice, 8))
    assert lo8 == pytest.approx(ref[0], abs=1e-10)
    assert hi8 == pytest.approx(ref[-1], abs=1e-10)


def test_eigen_bounds_box_singular(unit_lattice):
    box = lf.FrequencyBox([-1 / 3], [1 / 3])
    lo, hi = lf.gram_eigen_bounds(lf.gram_matrix(box, unit_lattice, 32))
    assert lo < 0.01
    assert hi <= 1.0 + 1e-8


# sections are nested principal submatrices, so by Cauchy interlacing the
# smallest eigenvalue can only fall and the largest only rise as M grows
_ASYMMETRIC_BOX = lf.FrequencyBox([-0.2, -0.4], [0.45, 0.3])
_HALF_SYMMETRIC_BOX = lf.FrequencyBox([-0.5, -0.2], [0.5, 0.4])  # flip of axis 0 only
_ROTATED = [[math.cos(0.37), -math.sin(0.37)], [math.sin(0.37), math.cos(0.37)]]
_SHEAR = [[1.0, 0.5], [0.0, 1.0]]
_HEX = [[1.0, 0.5], [0.0, math.sqrt(3) / 2]]
# complex samples far from their origin: the overlap at shift 0 rebuilds each
# grid index as (x_j - origin) / step, which can round below the integer and
# leave an imaginary part of 1.3e-14 in the autocorrelation at 0
_FAR_SAMPLES = lf.SampledSpatial([1, 1j] @ np.random.default_rng(3).standard_normal((2, 40)),
                                 [44.1], 0.03, support_radius=16.0)


def test_eigen_monotone_in_section_size():
    # the 1-d hat keeps its exact comparison; the other cases get a 1e-12 slack
    for g, basis, sizes, slack in [
        (lf.BSpline(1), [[1.0]], (4, 8, 16, 32), 0.0),
        (lf.Gaussian(1.0, 2), _ROTATED, range(1, 7), 1e-12),
        (_ASYMMETRIC_BOX, np.eye(2).tolist(), range(1, 7), 1e-12),
        (lf.BSpline(1, 3), np.eye(3).tolist(), range(1, 4), 1e-12),
    ]:
        L = lf.new_lattice(basis)
        los, his = zip(*(lf.gram_eigen_bounds(lf.gram_matrix(g, L, m)) for m in sizes))
        assert all(a >= b - slack for a, b in zip(los, los[1:])), (g, los)
        assert all(a <= b + slack for a, b in zip(his, his[1:])), (g, his)


def _assert_matches_dense_reference(gram):
    lo, hi = lf.gram_eigen_bounds(gram)
    eig = np.linalg.eigvalsh(gram.dense())
    scale = float(np.max(np.abs(eig)))
    assert abs(lo - eig[0]) <= 1e-12 * scale
    assert abs(hi - eig[-1]) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), half_width=st.integers(0, 3), complex_entries=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_eigen_bounds_match_dense_reference(dim, half_width, complex_entries, seed):
    # random Hermitian difference entries, c_(-n) = conj(c_n): real ones take
    # the centrosymmetric split, complex ones Lee's full real symmetric matrix
    rng = np.random.default_rng(seed)
    shape = (4 * half_width + 1,) * dim
    c = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_entries else 0)
    _assert_matches_dense_reference(
        GramMatrix(half_width=half_width, dim=dim, diffs=(c + np.flip(c).conj()) + 0j))


@pytest.mark.parametrize("g, basis, half_width, complex_entries", [
    (_ASYMMETRIC_BOX, np.eye(2).tolist(), 15, True),
    (_HALF_SYMMETRIC_BOX, np.eye(2).tolist(), 15, True),
    (lf.Gaussian(1.0, 3), np.eye(3).tolist(), 4, False),
    (lf.Gaussian(1.0, 2), np.eye(2).tolist(), 15, False),
    (lf.Gaussian(1.0, 2), _ROTATED, 15, False),
    (lf.Gaussian(0.5, 2), np.eye(2).tolist(), 15, False),
    (_FAR_SAMPLES, [[1.0]], 3, True),
    (lf.BSpline(3, 2), np.diag([0.7, 1.3]).tolist(), 10, False),
], ids=["asymmetric_box_d2_M15", "half_symmetric_box_d2_M15", "gauss_d3_M4", "gauss_d2_M15", "gauss_d2_rotated_M15",
        "gauss_narrow_d2_M15", "far_samples_M3", "bspline3_diag_d2_M10"])
def test_eigen_bounds_match_dense_reference_catalog(g, basis, half_width, complex_entries):
    gram = lf.gram_matrix(g, lf.new_lattice(basis), half_width)
    assert bool(np.any(gram.diffs.imag)) is complex_entries
    _assert_matches_dense_reference(gram)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), half_width=st.integers(0, 3), complex_entries=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_eigen_bounds_match_dense_reference_tiny_entries(dim, half_width, complex_entries,
                                                         seed):
    # entries scaled by 10^U(-330, 0) run through the subnormal range down to
    # 0, so some fall below the eps^2 max|c| flush and some just above it
    rng = np.random.default_rng(seed)
    shape = (4 * half_width + 1,) * dim
    c = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_entries else 0)
    c = c * 10.0 ** rng.uniform(-330.0, 0.0, shape)
    _assert_matches_dense_reference(
        GramMatrix(half_width=half_width, dim=dim, diffs=(c + np.flip(c).conj()) + 0j))


def _bounds_and_block_orders(gram):
    """gram_eigen_bounds(gram) and the orders of the blocks it hands the solver."""
    orders, solve = [], np.linalg.eigvalsh

    def spy(a):
        orders.append(len(a))
        return solve(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", spy)
        return lf.gram_eigen_bounds(gram), orders


@settings(max_examples=80, deadline=None)
@given(labels=st.lists(st.integers(0, 2), min_size=1, max_size=3), half_width=st.integers(0, 3),
       complex_blocks=st.lists(st.booleans(), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_eigen_bounds_factor_over_blocks(labels, half_width, complex_blocks, seed):
    # c_0 times a product of random Hermitian blocks, 1 at 0 and below
    # 2^(1/2-|n|_1) elsewhere like an autocorrelation, over the partition of
    # the axes a by labels[a]; a block is complex when complex_blocks says so.
    # Two or more blocks (M >= 1) take one Toeplitz solve of order 2M+1 per
    # one-axis block and the joint-flip split of each larger one: two halves
    # when real, Lee's K when complex.  One block, or M = 0, splits whole
    rng = np.random.default_rng(seed)
    dim = len(labels)
    blocks = [[a for a in range(dim) if labels[a] == label] for label in sorted(set(labels))]
    c, axes, orders = rng.uniform(0.5, 2.0), [], []
    for block in blocks:
        shape = (4 * half_width + 1,) * len(block)
        v = rng.uniform(-1, 1, shape) + (1j * rng.uniform(-1, 1, shape)
                                         if complex_blocks[labels[block[0]]] else 0)
        n1 = np.abs(integer_box(len(block), 2 * half_width)).sum(axis=1).reshape(shape)
        v = (v + np.flip(v).conj()) * 0.5 ** (n1 + 1)
        v[(2 * half_width,) * len(block)] = 1.0
        c, axes = np.multiply.outer(c, v), axes + block
        n, real = (2 * half_width + 1) ** len(block), not np.any(v.imag)
        orders += [n] if len(block) == 1 else [n // 2 + 1, n // 2] if real else [n]
    c = c.transpose(np.argsort(axes))
    if len(blocks) == 1 or not half_width:
        n, real = (2 * half_width + 1) ** dim, not np.any(c.imag)
        orders = [n // 2 + 1, n // 2] if real else [n]
    gram = GramMatrix(half_width=half_width, dim=dim, diffs=c + 0j)
    _assert_matches_dense_reference(gram)
    assert sorted(_bounds_and_block_orders(gram)[1]) == sorted(orders)


def _centrosymmetric_bounds(gram):
    """The two-block split of real sections and Lee's K of complex ones,
    built entry by entry from the dense section after the eps^2 flush."""
    dense = gram.dense()
    dense[np.abs(dense) <= np.finfo(float).eps ** 2 * np.abs(gram.diffs).max()] = 0
    h = len(dense) // 2
    s, r, u, c0 = dense[:h, :h], dense[:h, :h:-1], dense[:h, h], dense[h, h].real
    even = np.block([[(s + r).real, math.sqrt(2.0) * u.real[:, None]],
                     [math.sqrt(2.0) * u.real[None], c0]])
    if not np.any(gram.diffs.imag):
        eig = np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh((s - r).real)])
    else:
        k = np.empty((2 * h + 1,) * 2)
        k[:h + 1, :h + 1] = even
        k[h + 1:, h + 1:] = (s - r).real
        k[:h, h + 1:] = (r - s).imag
        k[h + 1:, :h] = k[:h, h + 1:].T
        k[h + 1:, h] = k[h, h + 1:] = math.sqrt(2.0) * u.imag
        eig = np.linalg.eigvalsh(k)
    return float(eig.min()), float(eig.max())


def _two_products(kinds, half_width, real=False, seed=5):
    """Hermitian entries sum_r prod_a v_(r,a)(n_a) over two terms r, with
    v_(r,a) random of length 4M+1, real and even where ``kinds[a]`` is "e",
    complex and Hermitian where it is "h"; ``real`` keeps the real part.
    They respect the flips of the "e" axes and do not factor."""
    rng = np.random.default_rng(seed)
    c = 0
    for _ in range(2):
        term = 1
        for kind in kinds:
            v = rng.standard_normal(4 * half_width + 1) + (1j * rng.standard_normal(
                4 * half_width + 1) if kind == "h" else 0)
            term = np.multiply.outer(term, v + v[::-1].conj())
        c = c + term
    return GramMatrix(half_width=half_width, dim=len(kinds), diffs=(c.real if real else c) + 0j)


def _section(g, basis, half_width):
    return lf.gram_matrix(g, lf.new_lattice(basis), half_width)


@pytest.mark.parametrize("make, orders", [
    (lambda: _section(lf.Gaussian(1.0, 2), np.eye(2).tolist(), 15), [31, 31]),
    (lambda: _section(lf.Gaussian(1.0, 2), _ROTATED, 15), [31, 31]),
    (lambda: _section(lf.BSpline(1, 3), [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 2),
     [13, 12, 5]),
    (lambda: _section(lf.Sinc(2), [[1.0, 1.0], [0.0, 1.0]], 2), [5, 5]),
    (lambda: _section(_ASYMMETRIC_BOX, np.eye(2).tolist(), 3), [7, 7]),
    (lambda: _section(_HALF_SYMMETRIC_BOX, np.eye(2).tolist(), 3), [7, 7]),
    (lambda: _section(lf.FrequencyBox([-0.2, -0.5, -0.4], [0.45, 0.5, 0.3]),
                      np.eye(3).tolist(), 2), [5, 5, 5]),
    (lambda: _two_products("ee", 15, real=True), [481, 480]),
    (lambda: _section(lf.Gaussian(1.0, 2), _SHEAR, 1), [5, 4]),
    (lambda: _section(lf.Gaussian(1.0, 2), _SHEAR, 2), [13, 12]),
    (lambda: _section(lf.Gaussian(1.0, 2), _SHEAR, 15), [481, 480]),
    (lambda: _two_products("hh", 2, real=True), [13, 12]),
    (lambda: _two_products("hh", 3), [49]),
    (lambda: _two_products("eh", 3), [49]),
    (lambda: _two_products("heh", 2), [125]),
], ids=["gauss_d2", "gauss_d2_rotated", "bspline1_d3_shear_axis2", "sinc2_shear",
        "asymmetric_box", "half_symmetric_box", "half_symmetric_box_d3_axis1",
        "two_even_products_d2", "gauss_d2_shear_M1", "gauss_d2_shear_M2",
        "gauss_d2_shear_M15", "two_real_products_d2",
        "two_complex_products_d2", "two_products_d2_axis0", "two_products_d3_axis1"])
def test_eigen_bounds_block_orders(make, orders):
    # entries that factor, the catalog's tensor kinds on diagonal lattices,
    # the Gaussian rotated and the sinc's delta on its shear, take one
    # Toeplitz section of order 2M+1 per axis.  The sheared 3-d B-spline
    # factors over the block of axes 0 and 1, split by the joint flip, and
    # axis 2.  The rest factor over no partition and take the joint split
    # whole, bit for bit as the split built from the dense section: two
    # halves of the real sheared Gaussian and of the real parts of products,
    # one K of complex products, though two even products respect the flip
    # of each axis, and complex products that of axis 0 in d = 2, or of
    # axis 1 in d = 3
    gram = make()
    bounds, got = _bounds_and_block_orders(gram)
    assert got == orders
    n = (2 * gram.half_width + 1) ** gram.dim
    if got in ([n // 2 + 1, n // 2], [n]):
        assert bounds == _centrosymmetric_bounds(gram)
    else:
        _assert_matches_dense_reference(gram)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 3), half_width=st.integers(1, 3), complex_entries=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_eigen_bounds_factor_route(dim, half_width, complex_entries, seed):
    # a product of random Hermitian 1-d sequences, 1 at 0 and below 2^(1/2-|j|)
    # elsewhere like an autocorrelation, takes d solves of order 2M+1
    rng = np.random.default_rng(seed)
    j = np.arange(-2 * half_width, 2 * half_width + 1)
    c = rng.uniform(0.5, 2.0)
    for _ in range(dim):
        v = rng.uniform(-1, 1, j.size)
        if complex_entries:
            v = v + 1j * rng.uniform(-1, 1, j.size)
        v = (v + v[::-1].conj()) * 0.5 ** (np.abs(j) + 1)
        v[2 * half_width] = 1.0
        c = np.multiply.outer(c, v)
    gram = GramMatrix(half_width=half_width, dim=dim, diffs=c + 0j)
    _assert_matches_dense_reference(gram)
    assert _bounds_and_block_orders(gram)[1] == [2 * half_width + 1] * dim
    # ten times the route's threshold (2M+1)^d eps max|c| in l1, at
    # n = (1, ..., 1) and its conjugate, sends it back to the flip split
    step = 5 * (2 * half_width + 1) ** dim * np.finfo(float).eps * np.abs(c).max()
    c[(2 * half_width + 1,) * dim] += step
    c[(2 * half_width - 1,) * dim] = np.conj(c[(2 * half_width + 1,) * dim])
    gram = GramMatrix(half_width=half_width, dim=dim, diffs=c + 0j)
    _assert_matches_dense_reference(gram)
    orders = _bounds_and_block_orders(gram)[1]
    assert orders != [2 * half_width + 1] * dim and sum(orders) == (2 * half_width + 1) ** dim


def test_eigen_bounds_gauss_d3_past_the_dense_reference():
    # order 3375: the section is the Kronecker cube of the 1-d one, whose
    # eigenvalues are positive, so its extremes are the cubes of the 1-d ones
    lo, hi = lf.gram_eigen_bounds(lf.gram_matrix(lf.Gaussian(1.0, 3),
                                                 lf.new_lattice(np.eye(3).tolist()), 7))
    mu = np.linalg.eigvalsh(lf.gram_matrix(lf.Gaussian(1.0), lf.new_lattice([[1.0]]), 7).dense())
    assert mu[0] > 0
    assert abs(lo - mu[0] ** 3) <= 1e-12 * mu[-1] ** 3
    assert abs(hi - mu[-1] ** 3) <= 1e-12 * mu[-1] ** 3


@pytest.mark.parametrize("make, block", [
    (lambda dim: lf.BSpline(1, dim), _SHEAR),
    (lambda dim: lf.Gaussian(1.0, dim), _HEX),
    (lambda dim: lf.Sinc(dim), _HEX),
], ids=["bspline1_shear_by_z", "gauss_hex_by_z", "sinc_hex_by_z"])
def test_eigen_bounds_block_lattice_d3_past_the_dense_reference(make, block):
    # order 3375: on the block-diagonal basis diag(block, 1) the section is
    # the Kronecker product of the 2-d section on the block and the 1-d one
    # on Z; both are Gram sections, positive semidefinite, so the extremes
    # are the products of theirs
    basis = [row[:2] + [0.0] for row in block] + [[0.0, 0.0, 1.0]]
    (lo, hi), orders = _bounds_and_block_orders(lf.gram_matrix(make(3), lf.new_lattice(basis), 7))
    assert orders == [113, 112, 15]
    mu = np.linalg.eigvalsh(lf.gram_matrix(make(2), lf.new_lattice(block), 7).dense())
    nu = np.linalg.eigvalsh(lf.gram_matrix(make(1), lf.new_lattice([[1.0]]), 7).dense())
    assert abs(lo - mu[0] * nu[0]) <= 1e-12 * mu[-1] * nu[-1]
    assert abs(hi - mu[-1] * nu[-1]) <= 1e-12 * mu[-1] * nu[-1]


def test_eigen_bounds_form_no_dense_section(monkeypatch, unit_lattice):
    # the first two factor, the other two take the flip split
    grams = [lf.gram_matrix(lf.Gaussian(1.0, 2), lf.new_lattice(np.eye(2).tolist()), 3),
             lf.gram_matrix(_ASYMMETRIC_BOX, lf.new_lattice(np.eye(2).tolist()), 3),
             _section(lf.Gaussian(1.0, 2), _SHEAR, 3), _two_products("eh", 3)]
    expected = [lf.gram_eigen_bounds(gram) for gram in grams]

    def forbidden(*args, **kwargs):
        raise AssertionError("gram_eigen_bounds gathered a dense block")

    monkeypatch.setattr(GramMatrix, "_block", forbidden)
    monkeypatch.setattr(GramMatrix, "dense", forbidden)
    assert [lf.gram_eigen_bounds(gram) for gram in grams] == expected


@pytest.mark.parametrize("half_width, dim, diffs, expected", [
    (1, 1, np.ones(9), r"shape \(5,\), got \(9,\)"),
    (1, 1, np.ones(4), r"shape \(5,\), got \(4,\)"),
    (-1, 1, np.ones(1), "half_width must be an integer >= 0, got -1"),
    (1, 0, np.ones(5), "dim must be an integer >= 1, got 0"),
    # triangular, every eigenvalue 1, once solved as if Hermitian
    (1, 1, np.array([0, 0.5, 1, 0, 0]), r"largest \|c_\(-n\) - conj\(c_n\)\| is 0.5"),
    (1.5, 1, np.ones(7), "half_width must be an integer >= 0, got 1.5"),
    (True, 1, np.ones(5), "half_width must be an integer >= 0, got True"),
    (1, True, np.ones(5), "dim must be an integer >= 1, got True"),
], ids=["too_many", "too_few", "negative_half_width", "no_dimension", "not_hermitian",
        "float_half_width", "bool_half_width", "bool_dim"])
def test_gram_matrix_validates_its_entries(half_width, dim, diffs, expected):
    with pytest.raises(ValueError, match=expected):
        GramMatrix(half_width=half_width, dim=dim, diffs=diffs.astype(complex))


def test_eigen_envelope_all_presets(unit_lattice):
    for g in (lf.Sinc(1), lf.BSpline(1), lf.Gaussian(1.0),
              lf.FrequencyBox([-1 / 3], [1 / 3])):
        table = lf.compute_phi(g, unit_lattice, 512)
        lo_grid, hi_grid = float(table.values.min()), float(table.values.max())
        for m in (4, 8, 16, 32):
            lo, hi = lf.gram_eigen_bounds(lf.gram_matrix(g, unit_lattice, m))
            assert lo >= lo_grid - 1e-6
            assert hi <= hi_grid + 1e-6


def test_eigen_convergence_failure():
    bad = GramMatrix(half_width=1, dim=1, diffs=np.full(5, np.nan + 0j))
    with pytest.raises(ConvergenceFailure, match="5 non-finite"):
        lf.gram_eigen_bounds(bad)
    # one infinite entry, or a NaN in one imaginary part, fails just as fast
    for entry in (np.inf, 0.1 + 1j * np.nan):
        diffs = np.array([0.0, 0.1, 1.0, 0.1, 0.0], dtype=complex)
        diffs[3] = entry
        with pytest.raises(ConvergenceFailure, match="1 non-finite"):
            lf.gram_eigen_bounds(GramMatrix(half_width=1, dim=1, diffs=diffs))


# ---------------------------------------------------------------------------
# synthesis identities
# ---------------------------------------------------------------------------


def test_synthesis_single_translate(unit_lattice, bspline1_table):
    c = lf.CoefficientVector({(0,): 1.0})
    d, s, q = lf.synthesis_norm(lf.BSpline(1), unit_lattice, c, bspline1_table)
    for v in (d, s, q):
        assert v == pytest.approx(2 / 3, rel=1e-7)


def test_synthesis_sinc_pythagorean(unit_lattice, sinc_table):
    c = lf.CoefficientVector({(0,): 1.0, (1,): 1.0})
    d, s, q = lf.synthesis_norm(lf.Sinc(1), unit_lattice, c, sinc_table)
    for v in (d, s, q):
        assert v == pytest.approx(2.0, rel=1e-7)


def test_synthesis_bspline_difference(unit_lattice, bspline1_table):
    c = lf.CoefficientVector({(0,): 1.0, (1,): -1.0})
    d, s, q = lf.synthesis_norm(lf.BSpline(1), unit_lattice, c, bspline1_table)
    # quadratic form with the tridiagonal Gram: 2*(2/3) - 2*(1/6) = 1
    for v in (d, s, q):
        assert v == pytest.approx(1.0, rel=1e-7)


@pytest.mark.parametrize("maker", [lf.Sinc, lambda: lf.BSpline(1),
                                   lambda: lf.Gaussian(1.0)])
def test_synthesis_three_way_random(maker, unit_lattice):
    g = maker() if maker is not lf.Sinc else lf.Sinc(1)
    table = lf.compute_phi(g, unit_lattice, 4096)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        support = rng.integers(-4, 5, size=rng.integers(1, 5))
        entries = {
            (int(k),): complex(rng.standard_normal(), rng.standard_normal())
            for k in support
        }
        c = lf.CoefficientVector(entries)
        d, s, q = lf.synthesis_norm(g, unit_lattice, c, table)
        scale = max(1.0, d)
        assert abs(d - s) <= 1e-6 * scale
        assert abs(d - q) <= 1e-6 * scale
        assert abs(s - q) <= 1e-6 * scale


def test_synthesis_of_a_sparse_support_reads_entries_at_its_differences():
    # two coefficients 8 apart on Z^3 have three distinct differences; a Gram
    # section of half-width 8 holding them has 17^3 = 4913 rows, past the cap
    g, L = lf.Gaussian(1.0, 3), lf.new_lattice(np.eye(3).tolist())
    c = lf.CoefficientVector({(0, 0, 0): 1.0, (8, 0, 0): 0.5})
    d, s, q = lf.synthesis_norm(g, L, c, lf.compute_phi(g, L, 16))
    assert max(abs(d - s), abs(d - q), abs(s - q)) <= 1e-9
    # the translates 8 apart barely overlap: the norm is (1 + 0.25) ||g||^2
    assert q == pytest.approx(1.25 * g.norm_squared(), rel=1e-12)


# ---------------------------------------------------------------------------
# analysis coefficients
# ---------------------------------------------------------------------------


def test_analysis_sinc_orthonormal(unit_lattice):
    vals = lf.analysis_coefficients(lf.Sinc(1), unit_lattice, lf.Sinc(1), 3)
    expected = np.zeros(7)
    expected[3] = 1.0
    assert np.max(np.abs(vals - expected)) < 1e-8


def test_analysis_translate_shifts_autocorrelation(unit_lattice, translated):
    f = lf.BSpline(1)
    h = translated(f, [1.0])
    vals = lf.analysis_coefficients(f, unit_lattice, h, 3)
    for i, k in enumerate(range(-3, 4)):
        ref = lf.autocorrelation(f, unit_lattice, [k - 1])
        assert vals[i] == pytest.approx(ref, abs=1e-8)


def test_analysis_bessel_inequality(unit_lattice):
    # sup of the sinc periodization is 1, so the analysis sum is a contraction
    h = lf.Gaussian(1.0)
    vals = lf.analysis_coefficients(lf.Sinc(1), unit_lattice, h, 8)
    assert float(np.sum(np.abs(vals) ** 2)) <= h.norm_squared() + 1e-6


def _hat_gauss_overlap(k: int) -> float:
    """integral of exp(-pi x^2) hat(x - k) dx in closed form."""
    def e(x):  # antiderivative of exp(-pi x^2)
        return 0.5 * math.erf(math.sqrt(math.pi) * x)

    def x_e(x):  # antiderivative of x exp(-pi x^2)
        return -math.exp(-math.pi * x * x) / (2 * math.pi)

    rising = (1 - k) * (e(k) - e(k - 1)) + x_e(k) - x_e(k - 1)
    falling = (1 + k) * (e(k + 1) - e(k)) - (x_e(k + 1) - x_e(k))
    return rising + falling


def test_analysis_hat_gaussian_closed_form():
    # the Gaussian factor bounds the integration radius (about 3 per axis),
    # not the hat's slow polynomial decay
    ref = np.array([_hat_gauss_overlap(k) for k in (-1, 0, 1)])
    L = lf.new_lattice(np.eye(2))
    vals = lf.analysis_coefficients(lf.BSpline(1, 2), L, lf.Gaussian(1.0, 2), 1)
    assert np.max(np.abs(vals - np.outer(ref, ref).ravel())) <= 1e-12
    ref = np.array([_hat_gauss_overlap(k) for k in range(-8, 9)])
    vals = lf.analysis_coefficients(lf.BSpline(1), lf.new_lattice([[1.0]]),
                                    lf.Gaussian(1.0), 8)
    assert np.max(np.abs(vals - ref)) <= 1e-12


@pytest.mark.parametrize("half,step,band", [(64.0, 0.5, 1.0), (32.0, 0.25, 2.0)])
def test_analysis_sampled_pair_matches_band_closed_form(half, step, band):
    # two sampled generators with the same band b: the quadrature of
    # ahat conj(chat) over [-b, b] is h^2 sum_(j,l) a_l conj(c_j)
    # 2b sinc(2b (x_l - x_j + t)), whose integrand oscillates with the reach
    # of the sample boxes (up to 2 * half), not only with the shift
    rng = np.random.default_rng(64)
    x = np.linspace(-half, half, 257)
    c, a = rng.standard_normal(257), rng.standard_normal(257)
    f = lf.SampledSpatial(c, [-half], step, support_radius=band)
    psi = lf.SampledSpatial(a, [-half], step, support_radius=band)
    vals = lf.analysis_coefficients(f, lf.new_lattice([[1.0]]), psi, 2)
    ref = np.array([step**2 * a @ (2 * band * np.sinc(2 * band * (x[:, None] - x + t))) @ c
                    for t in -np.arange(-2.0, 3.0)])
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


# two overlapping off-centre frequency boxes: hhat * conj(fhat) is the
# indicator of their intersection, so <h, f(. + t)> is that box's inverse
# transform at -t, which is neither even nor real
_CROSS_BOXES = [
    ([[0.7]], ([-0.2], [0.35]), ([0.1], [0.6]), [[n] for n in range(-3, 4)]),
    ([[1.0, 1.0], [0.0, 1.0]], ([-0.2, -0.3], [0.35, 0.25]), ([0.1, -0.1], [0.6, 0.45]),
     [[0, 0], [1, 0], [0, 1], [1, -1], [-1, 2]]),
]


@pytest.mark.parametrize("case", range(len(_CROSS_BOXES)))
def test_cross_correlation_orientation(case, translated):
    basis, (f_lo, f_hi), (h_lo, h_hi), ns = _CROSS_BOXES[case]
    L = lf.new_lattice(basis)
    f, h = lf.FrequencyBox(f_lo, f_hi), lf.FrequencyBox(h_lo, h_hi)
    meet = lf.FrequencyBox(np.maximum(f_lo, h_lo), np.minimum(f_hi, h_hi))
    t = np.array(ns, dtype=float) @ L.basis.T
    ref = meet.spatial(-t)
    # a flipped shift or a lost conjugate reads meet.spatial(t), 0.15 or more
    # away; a box pair takes the intersection closed form
    assert np.max(np.abs(meet.spatial(t) - ref)) > 0.1
    vals = f.cross_correlation(h, t)
    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(vals, np.conj(h.cross_correlation(f, -t)), rtol=0, atol=1e-14)
    # real indicators cannot tell hhat * conj(fhat) from fhat * conj(hhat); a
    # translate of h by s is complex, and <h(. - s), f(. + t)> = <h, f(. + t + s)>;
    # it is not a box, so this checks the quadrature, whose panels do not
    # split at the box edges and which is good to about 1e-3 here
    s = np.full(L.dim, 0.3)
    np.testing.assert_allclose(f.cross_correlation(translated(h, s), t),
                               meet.spatial(-(t + s)), rtol=0, atol=5e-3)
    shifts = integer_box(L.dim, 2) @ L.basis.T
    np.testing.assert_array_equal(lf.analysis_coefficients(f, L, h, 2),
                                  f.cross_correlation(h, -shifts))


def _quad_on_interval(g1, a, b, s):
    """integral over [a, b] of g1hat(x) exp(-2 pi i x s) dx for a real g1hat."""
    def part(trig):
        return quad(lambda x: float(g1.fourier(np.array([[x]]))[0].real)
                    * trig(2 * math.pi * x * s), a, b, epsabs=1e-14)[0]
    return part(math.cos) - 1j * part(math.sin)


# a frequency box against a smooth generator g, given with its separable
# one-dimensional factor g1, on 0.7 Z or the shear
_BOX_SMOOTH = {
    "gauss": (([-0.2], [0.35]), lf.Gaussian(1.0), lf.Gaussian(1.0), [[0.7]]),
    "hat": (([-0.2], [0.35]), lf.BSpline(1), lf.BSpline(1), [[0.7]]),
    "cubic": (([-0.2], [0.35]), lf.BSpline(3), lf.BSpline(3), [[0.7]]),
    "gauss_shear": (([-0.2, 0.1], [0.35, 0.6]), lf.Gaussian(1.0, dim=2), lf.Gaussian(1.0),
                    [[1.0, 1.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(_BOX_SMOOTH))
def test_cross_correlation_box_against_smooth(name):
    # <g, box(. + t)> is the integral of ghat exp(-2 pi i xi . t) over the box;
    # the box faces are panel edges, so both orientations match quad of it
    (lo, hi), g, g1, basis = _BOX_SMOOTH[name]
    L, box = lf.new_lattice(basis), lf.FrequencyBox(lo, hi)
    radius = 3 if L.dim == 1 else 1
    t = integer_box(L.dim, radius) @ L.basis.T
    ref = np.array([np.prod([_quad_on_interval(g1, a, b, s) for a, b, s in zip(lo, hi, row)])
                    for row in t])
    np.testing.assert_allclose(box.cross_correlation(g, t), ref, rtol=0, atol=1e-12)
    # the other orientation: <box, g(. - B k)> = conj(<g, box(. + B k)>)
    np.testing.assert_allclose(lf.analysis_coefficients(g, L, box, radius), ref.conj(),
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# span projection
# ---------------------------------------------------------------------------


def test_project_self(unit_lattice, sinc_table):
    res = lf.project_onto_span(lf.Sinc(1), unit_lattice, lf.Sinc(1), sinc_table)
    assert res.residual_norm_sq == pytest.approx(0.0, abs=1e-10)
    assert res.is_member
    ok = ~np.isnan(res.F_samples.real)
    assert np.max(np.abs(res.F_samples[ok] - 1.0)) < 1e-9


def test_project_translate(unit_lattice, sinc_table, translated):
    psi = translated(lf.Sinc(1), [1.0])
    res = lf.project_onto_span(lf.Sinc(1), unit_lattice, psi, sinc_table)
    assert res.residual_norm_sq <= 1e-8
    assert res.is_member
    gamma = np.arange(4096) / 4096
    expected = np.exp(-2j * np.pi * gamma)
    assert np.max(np.abs(res.F_samples - expected)) < 1e-9


def test_project_wide_box_not_member(unit_lattice, sinc_table):
    psi = lf.FrequencyBox([-1.0], [1.0])
    res = lf.project_onto_span(lf.Sinc(1), unit_lattice, psi, sinc_table)
    assert not res.is_member
    assert res.residual_norm_sq == pytest.approx(1.0, abs=1e-6)


def test_project_degenerate_span(unit_lattice):
    zero_table = PeriodizationTable(
        lattice=unit_lattice, grid_res=16, values=np.zeros(16),
        trunc_radius=1, tail=0.0, generator_tag="null",
    )
    with pytest.raises(DegenerateSpan):
        lf.project_onto_span(lf.Sinc(1), unit_lattice, lf.Sinc(1), zero_table)


def _reconstruct_projection(res, g, lattice, grid_res, freq_radius):
    """Materialize the projection on a spatial grid from its multiplier."""
    fmult = np.where(np.isnan(res.F_samples.real), 0.0, res.F_samples)
    ms = np.arange(-freq_radius, freq_radius)
    gamma = np.arange(grid_res) / grid_res
    xi = (gamma[None, :] + ms[:, None]).ravel()
    phat = np.repeat(fmult[None, :], len(ms), axis=0).ravel() * g.fourier(xi[:, None])
    step = 1 / 64
    xs = np.arange(-6.0, 6.0 + step / 2, step)
    vals = (phat[None, :] @ np.exp(2j * np.pi * np.outer(xi, xs))).ravel() / grid_res
    return lf.SampledSpatial(vals, [xs[0]], step, support_radius=32.0)


def test_project_idempotent(unit_lattice):
    # project a Gaussian onto the hat translates, re-ingest the projection
    # as sampled data, and project again: it should already lie in the span
    g = lf.BSpline(1)
    table = lf.compute_phi(g, unit_lattice, 256)
    first = lf.project_onto_span(g, unit_lattice, lf.Gaussian(1.0), table)
    assert first.residual_norm_sq > 1e-3  # the Gaussian itself is not in the span

    proj = _reconstruct_projection(first, g, unit_lattice, 256, 64)
    second = lf.project_onto_span(g, unit_lattice, proj, table)
    assert second.residual_norm_sq <= 1e-3
    assert second.residual_norm_sq < 0.01 * first.residual_norm_sq


def test_table_from_another_lattice_rejected(bspline1_table):
    # the table is on Z; read against 0.7 Z it gave a negative residual and
    # two synthesis routes that disagreed
    g, L = lf.BSpline(1), lf.new_lattice([[0.7]])
    with pytest.raises(ValueError, match="differs from lattice"):
        lf.project_onto_span(g, L, g, bspline1_table)
    with pytest.raises(ValueError, match="differs from lattice"):
        lf.synthesis_norm(g, L, lf.CoefficientVector({(0,): 1.0}), bspline1_table)
    with pytest.raises(ValueError, match="differs from lattice"):
        lf.compact_support_riesz_check(g, L, bspline1_table)


def test_coefficient_vector_validation():
    with pytest.raises(ValueError):
        lf.CoefficientVector({})
    with pytest.raises(ValueError):
        lf.CoefficientVector({(0,): 0.0})
    c = lf.CoefficientVector({(2,): 1.0, (-1,): 2.0})
    assert c.support_radius() == 2
    assert c.norm_squared() == pytest.approx(5.0)


def test_nonfinite_coefficient_fails_fast(child_error):
    # a NaN coefficient made the direct route's tolerance NaN, and the Gaussian
    # tail radius search never ended
    code = ("import latticeframes as lf\n"
            "g, Z = lf.Gaussian(1.0), lf.new_lattice([[1.0]])\n"
            "c = lf.CoefficientVector({(0,): float('nan')})\n"
            "lf.synthesis_norm(g, Z, c, lf.compute_phi(g, Z, 64))\n")
    assert child_error(code) == "ValueError: coefficient at (0,) must be finite, got nan"


@pytest.mark.parametrize("value", [math.inf, -math.inf, complex(1.0, math.nan), "a", None])
def test_coefficient_vector_rejects_nonfinite(value):
    # an inf coefficient gave the norms (nan, inf, nan) without an error; a
    # value that is no number raised an untyped TypeError naming no key
    with pytest.raises(ValueError, match=r"^coefficient at \(1, 0\) must be finite, got "):
        lf.CoefficientVector({(0, 0): 1.0, (1, 0): value})


@pytest.mark.parametrize("entries", [
    {(0.5,): 1.0}, {0: 1.0}, {(True,): 1.0}, {(0,): 1.0, (0, 1): 1.0}, {(0,): 1.0, 1: 1.0},
], ids=["float_key", "bare_int_key", "bool_key", "mixed_lengths", "tuple_then_int"])
def test_coefficient_vector_takes_integer_tuple_keys(entries):
    with pytest.raises(ValueError, match="coefficient keys must be tuples of integers"):
        lf.CoefficientVector(entries)


def test_synthesis_rejects_keys_of_another_dimension(unit_lattice, bspline1_table):
    c = lf.CoefficientVector({(0, 0): 1.0})
    with pytest.raises(ValueError, match="keys have length 2, the lattice dimension 1"):
        lf.synthesis_norm(lf.BSpline(1), unit_lattice, c, bspline1_table)


def test_project_partial_overlap(unit_lattice):
    # the box span keeps only the [-1/3, 1/3) content of the sinc: residual 1/3
    box = lf.FrequencyBox([-1 / 3], [1 / 3])
    table = lf.compute_phi(box, unit_lattice, 1024)
    res = lf.project_onto_span(box, unit_lattice, lf.Sinc(1), table)
    assert not res.is_member
    # grid measure of the indicator support limits accuracy to O(1/N)
    assert res.residual_norm_sq == pytest.approx(1 / 3, abs=2 / 1024)


def test_synthesis_shear_lattice_orthonormal():
    # integer coefficient indices pair with unit-cell frequencies regardless
    # of the lattice basis; the shear case would expose any mix-up
    L = lf.new_lattice([[1.0, 1.0], [0.0, 1.0]])
    g = lf.Sinc(2)
    table = lf.compute_phi(g, L, 64)
    c = lf.CoefficientVector({(0, 0): 1.0, (1, 0): 1.0 + 0.5j, (0, -1): -2.0})
    d, s, q = lf.synthesis_norm(g, L, c, table)
    expect = c.norm_squared()
    for v in (d, s, q):
        assert v == pytest.approx(expect, rel=1e-9)
    vals = lf.analysis_coefficients(g, L, g, 1)
    ref = np.zeros(9)
    ref[4] = 1.0
    assert np.max(np.abs(vals - ref)) < 1e-9


def _hat_cross_reference(values, origin, step, grid_res):
    """Cross periodization sum_k psihat conj(hathat)(gamma + k) of 1-d samples
    against the hat on Z.

    psihat (a Riemann sum) has period P = 1/step, so the cross periodization
    groups k by residue r mod P, and the Fejer-type closed form
    sum_m sinc^2(x + P m) = sin^2(pi x) / (P^2 sin^2(pi x / P)) sums each
    group exactly: no truncation.
    """
    period = int(round(1.0 / step))
    gamma = np.arange(grid_res) / grid_res
    xs = origin + step * np.arange(len(values))
    cross = np.zeros(grid_res, dtype=complex)
    for r in range(period):
        x = gamma + r
        psihat = step * np.exp(-2j * np.pi * np.outer(x, xs)) @ values
        den = period**2 * np.sin(np.pi * x / period) ** 2
        safe = np.where(den == 0.0, 1.0, den)
        weight = np.where(den == 0.0, 1.0, np.sin(np.pi * x) ** 2 / safe)
        cross += psihat * weight
    return cross


def _hat_projection_reference(values, origin, step, grid_res):
    """Squared distance of 1-d samples from the span of hat translates on Z,
    from the exact cross periodization of ``_hat_cross_reference``."""
    cross = _hat_cross_reference(values, origin, step, grid_res)
    gamma = np.arange(grid_res) / grid_res
    phi = (2.0 + np.cos(2 * np.pi * gamma)) / 3.0
    norm = step * float(np.sum(np.abs(values) ** 2))
    return norm - float(np.mean(np.abs(cross) ** 2 / phi)), norm


def test_project_sampled_onto_hat_matches_exact_cross_sum(unit_lattice):
    # the hat table is exact with coefficient radius 2, and the cross table
    # is too: sampled data against the hat has finitely many nonzero
    # coefficients <psi, hat(. + n)>, so the residual is exact to rounding
    rng = np.random.default_rng(RNG_SEED)
    step, origin = 1.0 / 16, -4.0
    x = step * (np.arange(129) - 64)
    samples = np.maximum(1.0 - np.abs(x) / 4.0, 0.0) + 0.3 * rng.standard_normal(129)
    g = lf.BSpline(1)
    table = lf.compute_phi(g, unit_lattice, 256)
    assert table.trunc_radius == 2 and table.tail == 0.0
    psi = lf.SampledSpatial(samples, [origin], step, support_radius=8.0)
    res = lf.project_onto_span(g, unit_lattice, psi, table)
    ref, norm = _hat_projection_reference(samples, origin, step, 256)
    assert not res.is_member
    assert abs(res.residual_norm_sq - ref) <= 1e-12 * norm


def test_project_bspline_against_gaussian_d2_returns():
    # the cross radius once asked for the hat's own radius at 1e-10 of
    # max phi, beyond the d = 2 cap, and raised TailNotAchievable; the
    # Cauchy-Schwarz product of the two tails meets the target at R = 3
    L, g, psi = lf.new_lattice(np.eye(2)), lf.BSpline(1, 2), lf.Gaussian(1.0, 2)
    table = lf.compute_phi(g, L, 32)
    res = lf.project_onto_span(g, L, psi, table)
    assert (res.route, res.trunc_radius) == ("direct", 3)
    assert 0.0 < res.tail <= 1e-10 * math.sqrt(psi.norm_squared() * table.values.max())
    # phi >= 1/9 here, so the whole grid is off the zero set
    wide = cross_phi_values(g, psi, L, 32, 8)
    ref = psi.norm_squared() - float(np.mean(np.abs(wide) ** 2 / table.values))
    assert abs(res.residual_norm_sq - ref) <= 1e-12
    assert not res.is_member


@pytest.mark.parametrize("orders", [(1, 3), (3, 2), (2, 2)])
def test_bspline_cross_correlation_closed_form(orders):
    # <b_m', b_m(. + t)> = b_(m+m'+1)(t); the base class takes the frequency
    # quadrature of sinc^(m+1) sinc^(m'+1)
    f, h = lf.BSpline(orders[0]), lf.BSpline(orders[1])
    t = np.linspace(-4.0, 4.0, 33)[:, None]
    closed = f.cross_correlation(h, t)
    np.testing.assert_allclose(closed, lf.Generator.cross_correlation(f, h, t),
                               rtol=0, atol=1e-10)
    assert np.all(closed[np.abs(t[:, 0]) >= 0.5 * (sum(orders) + 2)] == 0.0)


def test_dual_cross_table_matches_direct_sum_on_shear():
    # the coefficient box of two B-splines on the shear comes from B^-1 of
    # the box difference; the direct sum at R = 20 agrees within its
    # Cauchy-Schwarz tail
    L = lf.new_lattice([[1.0, 1.0], [0.0, 1.0]])
    g, psi = lf.BSpline(1, 2), lf.BSpline(2, 2)
    dual = compute_cross_phi(g, psi, L, 16, 1e-10)
    assert (dual.route, dual.trunc_radius, dual.tail) == ("dual", 5, 0.0)
    bound = math.sqrt(lf.tail_bound(psi, L, 20) * lf.tail_bound(g, L, 20))
    assert np.max(np.abs(dual.values - cross_phi_values(g, psi, L, 16, 20))) <= bound
    # against itself the cross table is phi, whose box comes from the same
    # spatial boxes; B^-T in place of B^-1 would drop c_n = b_5(2)^2 ~ 7e-5
    # at B n = (2, -2)
    own = compute_cross_phi(psi, psi, L, 16, 1e-10)
    assert own.route == "dual"
    np.testing.assert_allclose(own.values, lf.compute_phi(psi, L, 16).values, rtol=0, atol=1e-14)


def test_project_complex_sampled_pins_orientation(unit_lattice):
    # complex samples placed off-centre: the cross periodization is neither
    # even nor real, so a flipped n or a lost conjugate reads cross(-gamma)
    # or conj(cross), both far from the residue-grouped reference (whose
    # period needs the samples on step * Z)
    step, origin = 1.0 / 16, 5.0 / 16
    x = origin + step * np.arange(40)
    samples = (1.0 + 0.5 * x) * np.exp(3j * x)
    psi = lf.SampledSpatial(samples, [origin], step)
    g = lf.BSpline(1)
    table = lf.compute_phi(g, unit_lattice, 64)
    ref = _hat_cross_reference(samples, origin, step, 64)
    assert np.max(np.abs(np.roll(ref[::-1], 1) - ref)) > 0.1
    assert np.max(np.abs(ref.conj() - ref)) > 0.1
    res = lf.project_onto_span(g, unit_lattice, psi, table)
    assert res.route == "dual"
    np.testing.assert_allclose(res.F_samples * table.values, ref, rtol=0, atol=1e-13)
    residual, norm = _hat_projection_reference(samples, origin, step, 64)
    assert abs(res.residual_norm_sq - residual) <= 1e-12 * norm
    # the other orientation: sampled data spans, the hat is projected
    cross = compute_cross_phi(psi, g, unit_lattice, 64, 1e-10)
    assert cross.route == "dual"
    np.testing.assert_allclose(cross.values, ref.conj(), rtol=0, atol=1e-13)


def test_project_sampled_pair_takes_direct_route(unit_lattice):
    # two combs have no finite inner product, so the cross table keeps the
    # lattice sum over the declared bands: against itself it is the table
    x = np.arange(-8, 9) / 4.0
    g = lf.SampledSpatial(np.maximum(1.0 - np.abs(x) / 2.0, 0.0), [x[0]], 0.25,
                          support_radius=2.5)
    table = lf.compute_phi(g, unit_lattice, 64)
    res = lf.project_onto_span(g, unit_lattice, g, table)
    assert res.route == "direct"
    ok = ~np.isnan(res.F_samples.real)
    assert np.max(np.abs(res.F_samples[ok] - 1.0)) <= 1e-12


def test_project_records_route(unit_lattice):
    g = lf.BSpline(1)
    table = lf.compute_phi(g, unit_lattice, 64)
    x = np.arange(-8, 9) / 4.0
    sampled = lf.SampledSpatial(np.exp(-x**2), [x[0]], 0.25)
    res = lf.project_onto_span(g, unit_lattice, sampled, table)
    # B n must lie in [-1, 1] - [-2, 2]
    assert (res.route, res.trunc_radius, res.tail) == ("dual", 3, 0.0)
    res = lf.project_onto_span(g, unit_lattice, lf.Gaussian(1.0), table)
    assert (res.route, res.trunc_radius) == ("direct", 3)
    assert 0.0 < res.tail <= 1e-10
    # a dual table's coefficient radius no longer floors the cross sum
    L = lf.new_lattice([[0.7]])
    wide = lf.compute_phi(lf.Gaussian(3.0), L, 64)
    assert wide.route == "dual" and wide.trunc_radius == 16
    res = lf.project_onto_span(lf.Gaussian(3.0), L, lf.Gaussian(1.0), wide)
    assert (res.route, res.trunc_radius) == ("direct", 1)


def test_project_sampled_data_between_translates():
    # samples on [3, 4] miss every translate of the hat by 10 Z: no integer
    # n has 10 n in [-1, 1] - [3, 4], so the cross table is zero
    L = lf.new_lattice([[10.0]])
    g = lf.BSpline(1)
    table = lf.compute_phi(g, L, 16)
    psi = lf.SampledSpatial(np.linspace(1.0, 2.0, 9), [3.0], 0.125)
    res = lf.project_onto_span(g, L, psi, table)
    assert (res.route, res.trunc_radius, res.tail) == ("dual", 0, 0.0)
    assert res.residual_norm_sq == psi.norm_squared()
    assert not res.is_member
