import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import latticeframes as lf
from latticeframes._integrate import grid_blocks
from latticeframes.errors import NoDecayInfo, TailNotAchievable, ZeroGenerator
from latticeframes.generators import (CompactFrequencySupport, DecayBound, _axis_tolerance,
                                      _frequency_integral, _gaussian_moment_sum)
from latticeframes.lattice import operator_inf_norm
from latticeframes.periodization import choose_truncation


def test_sinc_fourier_is_indicator():
    g = lf.Sinc(1)
    assert g.fourier([[0.0], [0.75]]) == pytest.approx([1.0, 0.0])
    # half-open convention: left edge in, right edge out
    assert g.fourier([[-0.5], [0.5]]) == pytest.approx([1.0, 0.0])


def test_bspline_fourier():
    g = lf.BSpline(1)
    assert g.fourier([[0.0], [0.5]]) == pytest.approx([1.0, np.sinc(0.5) ** 2])


def test_gaussian_fourier_self_dual():
    g = lf.Gaussian(1.0)
    # oracle: quadrature of the transform integral (real part by symmetry)
    oracle, _ = quad(lambda x: math.exp(-math.pi * x * x) * math.cos(2 * math.pi * x),
                     -10, 10, limit=200)
    val = g.fourier([[1.0]])[0]
    assert val.real == pytest.approx(oracle, abs=1e-8)
    assert val.real == pytest.approx(math.exp(-math.pi), abs=1e-12)


def test_spatial_values():
    assert lf.Sinc(1).spatial([[0.0]]) == pytest.approx([1.0])
    b1 = lf.BSpline(1)
    assert b1.spatial([[0.0], [1.0], [-1.0], [0.5]]) == pytest.approx([1.0, 0.0, 0.0, 0.5])


def test_bspline_spatial_zero_right_of_support():
    # the divided-difference sum cancels catastrophically right of the support
    assert lf.BSpline(13).spatial([[50.0]]) == 0
    assert lf.BSpline(11).spatial([[50.0]]) == 0


def test_box_spatial_inverse_transform():
    g = lf.FrequencyBox([-1.0 / 3.0], [1.0 / 3.0])
    assert g.spatial([[0.0]]) == pytest.approx([2.0 / 3.0])
    # oracle: quadrature of the inverse transform at a generic point
    x = 0.7
    oracle, _ = quad(lambda xi: math.cos(2 * math.pi * xi * x), -1.0 / 3.0, 1.0 / 3.0)
    assert g.spatial([[x]])[0].real == pytest.approx(oracle, abs=1e-10)


def test_norms():
    assert lf.Sinc(1).norm_squared() == pytest.approx(1.0)
    assert lf.FrequencyBox([-1 / 3], [1 / 3]).norm_squared() == pytest.approx(2 / 3)
    # oracle: direct integration of the squared hat function
    oracle, _ = quad(lambda x: (1 - abs(x)) ** 2, -1, 1)
    assert lf.BSpline(1).norm_squared() == pytest.approx(oracle, rel=1e-12)
    assert lf.Gaussian(1.0).norm_squared() == pytest.approx(1 / math.sqrt(2))


def test_plancherel_consistency():
    # spatial quadrature of |f|^2 matches the closed-form norm; every case is
    # supported in, or negligible outside, [-8, 8]
    for g in (lf.BSpline(1), lf.BSpline(3), lf.Gaussian(1.0)):
        xs = np.linspace(-8.0, 8.0, 20001)
        approx = np.trapezoid(np.abs(g.spatial(xs[:, None])) ** 2, xs)
        assert approx == pytest.approx(g.norm_squared(), rel=1e-6)


def test_zero_generator_rejected():
    with pytest.raises(ZeroGenerator):
        lf.SampledSpatial(np.zeros(8), [0.0], 0.125)


def test_box_corner_validation():
    with pytest.raises(ValueError):
        lf.FrequencyBox([0.5], [0.5])


def test_decay_envelope_holds():
    rng = np.random.default_rng(101)
    cases = [lf.Sinc(1), lf.BSpline(1), lf.BSpline(3), lf.Gaussian(1.0),
             lf.Sinc(2), lf.BSpline(1, dim=2), lf.Gaussian(0.7, dim=2)]
    for g in cases:
        db = g.decay_bound()
        xi = rng.uniform(-8, 8, size=(1000, g.dim))
        t = np.max(np.abs(xi), axis=1)
        power = np.abs(g.fourier(xi)) ** 2
        if isinstance(db, CompactFrequencySupport):
            env = np.where(t > db.radius, 0.0, db.peak)
        elif isinstance(db, lf.PolynomialDecay):
            env = np.minimum(db.peak, db.constant / np.maximum(t, 1e-300) ** db.order)
        else:
            env = db.constant * np.exp(-db.rate * t**2)
        assert np.all(power <= env + 1e-12)


def test_autocorrelation_envelope_holds():
    # the envelopes compute_phi's dual route sums: |c(t)| in t = |t|_2
    rng = np.random.default_rng(102)
    for g in (lf.Gaussian(0.3), lf.Gaussian(1.0, dim=2), lf.Gaussian(3.0, dim=3)):
        db = g.autocorrelation_decay()
        t = rng.uniform(-12, 12, size=(1000, g.dim))
        c = np.abs(g.autocorrelation(t))
        env = db.constant * np.exp(-db.rate * np.sum(t**2, axis=1))
        assert np.all(c <= env * (1 + 1e-12) + 1e-300), g.label
    for g in (lf.Sinc(1), lf.FrequencyBox([-0.2], [0.35])):
        assert g.autocorrelation_decay() is None


@pytest.mark.parametrize("width,a", [(1.0, 1.0), (0.3, 40.0), (1.0, 3000.0)])
def test_gaussian_tail_bound_dominates_on_coarse_lattices(width, a):
    # on coarse lattices the envelope decays slowly in k, so most of the
    # tail lies past the explicitly summed shells; the bound stays finite
    # and dominates a brute-force sum out to twenty times the decay scale
    g, L = lf.Gaussian(width), lf.new_lattice([[a]])
    scale = a / width
    for radius in (1, int(scale) + 1, int(3 * scale) + 1):
        bound = lf.tail_bound(g, L, radius)
        ks = np.arange(radius + 1, radius + int(20 * scale) + 100, dtype=float)
        brute = max(np.sum(np.abs(g.fourier((gm + np.concatenate([ks, -ks]))[:, None] / a)) ** 2)
                    for gm in np.linspace(0, 1, 17)) / a
        assert brute <= bound < math.inf


def test_gaussian_moment_sum_dominates():
    # the closed-form remainder of every Gaussian lattice tail in d = 1..3
    for a in (1e-6, 1e-3, 0.5):
        for j in (1, 64, 1000):
            u = np.arange(j, j + int(10 / math.sqrt(a)) + 10, dtype=float)
            for k in range(3):
                brute = float(np.sum(u**k * np.exp(-a * u**2)))
                bound = _gaussian_moment_sum(k, a, j)
                assert brute <= bound <= 2.0 * brute + 1e-300, (a, j, k)


def test_integer_parameters_must_be_integers():
    # a fractional order or dimension used to be truncated without notice
    for make, name in ((lambda: lf.BSpline(1.7), "order"), (lambda: lf.BSpline(1.0), "order"),
                       (lambda: lf.BSpline(0), "order"), (lambda: lf.BSpline(2, dim=1.5), "dim"),
                       (lambda: lf.BSpline(True), "order"),
                       (lambda: lf.Gaussian(1.0, dim=2.5), "dim"),
                       (lambda: lf.Sinc(1.5), "dim"), (lambda: lf.Sinc(0), "dim")):
        with pytest.raises(ValueError, match=name):
            make()
    assert lf.BSpline(np.int64(2), dim=np.int64(2)).order == 2


def test_tail_bound_box_compact(unit_lattice):
    g = lf.FrequencyBox([-1 / 3], [1 / 3])
    assert lf.tail_bound(g, unit_lattice, 1) == 0.0


def test_tail_bound_gaussian(unit_lattice):
    g = lf.Gaussian(1.0)
    bound = lf.tail_bound(g, unit_lattice, 10)
    assert bound <= 1e-40
    # must dominate the brute-force tail out to a much larger radius
    ks = np.arange(11, 101, dtype=float)
    gammas = np.linspace(0, 1, 33)
    brute = max(
        np.sum(np.abs(g.fourier((gm + np.concatenate([ks, -ks]))[:, None])) ** 2)
        for gm in gammas
    )
    assert bound >= brute


def test_tail_bound_bspline_dominates(unit_lattice):
    g = lf.BSpline(1)
    gammas = np.linspace(0, 1, 65)
    for radius in (4, 8, 16):
        bound = lf.tail_bound(g, unit_lattice, radius)
        ks = np.arange(radius + 1, radius + 2000, dtype=float)
        brute = max(
            np.sum(np.abs(g.fourier((gm + np.concatenate([ks, -ks]))[:, None])) ** 2)
            for gm in gammas
        )
        assert bound >= brute
        # same asymptotic order as the analytic 1/K^3 envelope
        assert bound <= 50.0 / radius**3


def _shell_loop_tail(g, lattice, radius):
    # the polynomial lattice tail summed shell by shell in Python, as it was
    # before the shell sum was vectorized
    decay = g.decay_bound()
    d, p = lattice.dim, decay.order
    c_mapped = decay.constant * operator_inf_norm(lattice.basis.T) ** p
    total = 0.0
    for m in range(radius + 1, radius + 65):
        total += ((2 * m + 1) ** d - (2 * m - 1) ** d) * min(decay.peak, c_mapped / (m - 1) ** p)
    j = radius + 64
    total += {1: 2.0, 2: 16.0, 3: 98.0}[d] * c_mapped * (j ** (d - 1 - p) + j ** (d - p) / (p - d))
    return total / lattice.det_abs


_TAIL_LATTICES = {1: [[[1.0]], [[0.7]]], 2: [np.eye(2), [[1.0, 1.0], [0.0, 1.0]]],
                  3: [np.eye(3), [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]]}
# choose_truncation radii at targets 1e-4, 1e-8, 1e-12 per (d, lattice, order),
# None where the cap is not enough; pinned from the shell-by-shell loop
_TRUNCATION_RADII = {
    (1, 0, 1): [5, 89, 1900], (1, 0, 2): [2, 9, 54], (1, 0, 3): [2, 4, 13],
    (1, 1, 1): [4, 63, 1330], (1, 1, 2): [2, 7, 38], (1, 1, 3): [1, 3, 9],
    (2, 0, 1): [22, None, None], (2, 0, 2): [3, 23, 233], (2, 0, 3): [2, 6, 24],
    (2, 1, 1): [96, None, None], (2, 1, 2): [7, 62, 691], (2, 1, 3): [4, 13, 59],
    (3, 0, 1): [None, None, None], (3, 0, 2): [6, None, None], (3, 0, 3): [2, 10, 57],
    (3, 1, 1): [None, None, None], (3, 1, 2): [19, None, None], (3, 1, 3): [5, 28, None],
}


@pytest.mark.parametrize("key", sorted(_TRUNCATION_RADII))
def test_vectorized_shell_sum_matches_the_loop(key):
    d, which, order = key
    g, lattice = lf.BSpline(order, d), lf.new_lattice(_TAIL_LATTICES[d][which])
    for radius in (1, 2, 7, 50, 99, 1000):
        assert lf.tail_bound(g, lattice, radius) == pytest.approx(
            _shell_loop_tail(g, lattice, radius), rel=1e-14, abs=0.0)
    radii = []
    for target in (1e-4, 1e-8, 1e-12):
        try:
            radii.append(choose_truncation(g, lattice, target)[0])
        except TailNotAchievable:
            radii.append(None)
    assert radii == _TRUNCATION_RADII[key]


def test_tail_bound_monotone(unit_lattice):
    for g in (lf.BSpline(1), lf.Gaussian(1.0)):
        bounds = [lf.tail_bound(g, unit_lattice, k) for k in (1, 2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def test_tail_bound_needs_decay(unit_lattice):
    sampled = lf.SampledSpatial(np.array([1.0, 1.0]), [0.0], 0.5)
    with pytest.raises(NoDecayInfo):
        lf.tail_bound(sampled, unit_lattice, 4)


class _OpaqueDecay(DecayBound):
    """An envelope kind that bounds neither tail."""


class _OpaqueGaussian(lf.Gaussian):
    def decay_bound(self):
        return _OpaqueDecay()


def test_unknown_envelope_kind_rejected(unit_lattice):
    g = _OpaqueGaussian(1.0)
    with pytest.raises(NoDecayInfo, match="_OpaqueDecay"):
        lf.tail_bound(g, unit_lattice, 4)
    with pytest.raises(NoDecayInfo, match="_OpaqueDecay"):
        g.decay_bound().tail_radius(g.dim, 1e-9)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("g", [
    lf.BSpline(1), lf.BSpline(3), lf.Gaussian(0.3), lf.Gaussian(1.0), lf.Gaussian(3.0),
    lf.Gaussian(1.0, dim=2), lf.BSpline(3, dim=2), lf.Sinc(2),
], ids=lambda g: g.label)
def test_fourier_tail_radius_certified(g, tol):
    # the energy of fhat outside [-R, R]^d, by quadrature inside, is at most tol
    radius = g.decay_bound().tail_radius(g.dim, tol)
    box = np.full(g.dim, radius)
    inside = sum(float(np.sum(w * np.abs(g.fourier(pts)) ** 2))
                 for _, pts, w in grid_blocks(-box, box, osc_freq=0.0))
    assert g.norm_squared() - inside <= tol


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
def test_polynomial_tail_radius_rejects_a_bad_tolerance(tol):
    # NaN gave the radius 1 without an error, -1.0 a TypeError from a complex power
    with pytest.raises(ValueError, match="^tail tolerance must be finite and positive, got "):
        lf.BSpline(1).decay_bound().tail_radius(1, tol)


def _hat_samples(step):
    xs = np.arange(-1.0, 1.0 + step / 2, step)
    return lf.SampledSpatial(np.maximum(0.0, 1.0 - np.abs(xs)), [xs[0]], step,
                             support_radius=0.5 / step)


def test_sampled_fourier_consistency():
    g = _hat_samples(1.0 / 64.0)
    rng = np.random.default_rng(5)
    xi = rng.uniform(-2, 2, size=(100, 1))
    fast = g.fourier(xi)
    # dense reference: plain loop over samples
    xs = np.arange(-1.0, 1.0 + 1 / 128, 1 / 64)
    vals = np.maximum(0.0, 1.0 - np.abs(xs))
    slow = np.array(
        [np.sum(vals * np.exp(-2j * np.pi * x * xs)) / 64.0 for x in xi[:, 0]]
    )
    assert np.max(np.abs(fast - slow)) < 1e-8


def test_sampled_interpolation():
    g = _hat_samples(1.0 / 64.0)
    values = g.spatial([[0.0], [0.25], [3.0]]).real
    assert values[0] == pytest.approx(1.0)
    assert values[1] == pytest.approx(0.75, abs=1e-12)
    assert values[2] == pytest.approx(0.0)


def test_sampled_csv_round_trip(tmp_path):
    step = 0.125
    xs = np.arange(-1.0, 1.0 + step / 2, step)
    rows = [f"{x:.10g},{max(0.0, 1 - abs(x)):.10g},0.0" for x in xs]
    path = tmp_path / "hat.csv"
    path.write_text("\n".join(rows) + "\n")
    g = lf.load_sampled_csv(path, support_radius=4.0)
    assert g.step == pytest.approx(step)
    ref = _hat_samples(step)
    xi = np.linspace(-2, 2, 17)[:, None]
    assert np.max(np.abs(g.fourier(xi) - ref.fourier(xi))) < 1e-12


def test_sampled_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0,0.0\n0.1,1.0,0.0\n0.35,1.0,0.0\n")
    with pytest.raises(ValueError):
        lf.load_sampled_csv(path)


def _csv_samples(text):
    def load(tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(text)
        return lf.load_sampled_csv(path)
    return load


# parameters that failed later, far from their cause: a -1e400 corner raised
# OverflowError in the tail bound, a NaN origin gave Gram bounds (0, 0), a NaN
# sample blamed target_tail and a NaN coordinate "negative dimensions"
_NONFINITE_PARAMETERS = {
    "box_lower": (lambda _: lf.FrequencyBox([-math.inf], [0.5]), "box lower corner"),
    "box_upper": (lambda _: lf.FrequencyBox([-0.5, 0.0], [0.5, math.nan]), "box upper corner"),
    "sample_value": (lambda _: lf.SampledSpatial([1.0, math.nan, 0.5], [0.0], 0.5),
                     "sample values"),
    "sample_origin": (lambda _: lf.SampledSpatial([1.0, 0.5], [math.nan], 0.5), "sample origin"),
    "csv_coordinate": (_csv_samples("0,1,0\nnan,0.5,0\n1,0.25,0\n"), "CSV rows"),
    "csv_value": (_csv_samples("0,1,0\n0.5,-1e400,0\n1,0.25,0\n"), "CSV rows"),
}


@pytest.mark.parametrize("name", sorted(_NONFINITE_PARAMETERS))
def test_nonfinite_parameters_rejected_at_construction(name, tmp_path):
    build, parameter = _NONFINITE_PARAMETERS[name]
    with pytest.raises(ValueError, match=f"^{parameter} must be finite, got "):
        build(tmp_path)


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_support_radius_must_be_finite_and_positive(radius):
    # -1.0 gave a table from a certified tail of 0, NaN and inf untyped errors
    # in the tail bound
    with pytest.raises(ValueError, match="^support_radius must be finite and positive, got "):
        lf.SampledSpatial([0.5, 1.0, 0.5], [-0.5], 0.5, support_radius=radius)


@pytest.mark.parametrize("widths,dim", [((0.3, 1.0), 1), ((1.0, 3.0), 1), ((0.7, 1.3), 2),
                                        ((1.0, 1.7), 3)])
def test_gaussian_pair_closed_form(widths, dim):
    # <g_s', g_s(. + t)> = (s s' / sqrt(s^2 + s'^2))^d exp(-pi |t|^2 / (s^2 + s'^2))
    # against the base-class frequency quadrature, in both orientations
    rng = np.random.default_rng(7)
    t = rng.uniform(-2.5, 2.5, size=(5, dim))
    f, h = (lf.Gaussian(w, dim) for w in widths)
    for a, b in ((f, h), (h, f)):
        np.testing.assert_allclose(a.cross_correlation(b, t),
                                   lf.Generator.cross_correlation(a, b, t), rtol=0, atol=1e-12)
    assert f.norm_squared() == pytest.approx((widths[0] / math.sqrt(2.0)) ** dim, rel=1e-15)


# tensor pairs with no closed form
_TENSOR_PAIRS = {
    "hat_gauss": (lf.BSpline(1, 2), lf.Gaussian(1.0, 2)),
    "box_quadratic": (lf.FrequencyBox([-0.2, 0.1], [0.35, 0.6]), lf.BSpline(2, 2)),
}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(_TENSOR_PAIRS)), flipped=st.booleans(),
       t=st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 2), min_size=1, max_size=6))
def test_tensor_pair_quadrature_is_the_product_of_its_axes(name, flipped, t, mesh_only):
    # <h, f(. + t)> of f = f_1 (x) f_2 and h = h_1 (x) h_2 is the product of
    # <h_a, f_a(. + t_a)>, one rule per axis; the same pair without axis
    # factors takes the 2-d mesh
    f, h = _TENSOR_PAIRS[name]
    if flipped:
        f, h = h, f
    t = np.array(t)
    mesh = lf.Generator.cross_correlation(mesh_only(f), mesh_only(h), t)
    np.testing.assert_allclose(f.cross_correlation(h, t), mesh, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(norms=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=3),
       tol=st.floats(1e-16, 10.0))
def test_axis_tolerance_keeps_the_product_within_tol(norms, tol):
    # the worst product error of axis integrals |I_a| <= N_a taken within eps:
    # every I_a = N_a and every error +eps, prod (N_a + eps) - prod N_a
    eps = _axis_tolerance(norms, tol)
    assert 0.0 < eps <= 1.0
    assert math.prod(n + eps for n in norms) - math.prod(norms) <= tol * (1.0 + 1e-12)


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_per_axis_rules_meet_the_tolerance(tol):
    # the d = 3 Gaussian pair against its closed form, at a tolerance loose
    # enough that the axis tails, not rounding, set the error
    f, h = lf.Gaussian(1.0, 3), lf.Gaussian(1.7, 3)
    t = np.random.default_rng(5).uniform(-2.0, 2.0, (8, 3))
    err = np.abs(_frequency_integral(f, h, t, tol) - f.cross_correlation(h, t)).max()
    assert err <= tol


def _old_sampled_overlap(values, origin, step, t):
    """h^d sum_j v_j conj(f(x_j + t)) with f the multilinear interpolant: the
    discrete overlap written from the other side, as an independent reference."""
    g = lf.SampledSpatial(values, origin, step)
    axes = [o + step * np.arange(n) for o, n in zip(g.origin, values.shape)]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g.dim)
    return np.array([np.sum(values.ravel() * np.conj(g.spatial(coords + s)))
                     for s in t]) * step**g.dim


@pytest.mark.parametrize("dim", [1, 2])
def test_sampled_self_correlation_is_discrete_overlap(dim):
    # the comb sum h^d sum_j conj(v_j) f(x_j - t) serves the sampled generator
    # against itself: both forms are h^d sum_{i,j} conj(v_j) v_i hat((x_j - t - x_i)/h)
    # with the even tensor hat, so they agree for complex off-centre samples
    rng = np.random.default_rng(11 + dim)
    shape = (13,) if dim == 1 else (6, 5)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    origin, step = [0.3, -0.45][:dim], 0.25
    g = lf.SampledSpatial(values, origin, step)
    t = np.vstack([np.zeros(dim), rng.uniform(-1.5, 1.5, size=(20, dim)),
                   step * rng.integers(-4, 5, size=(5, dim))])
    ref = _old_sampled_overlap(values, origin, step, t)
    norm = g.norm_squared()
    assert norm == pytest.approx(step**dim * np.sum(np.abs(values) ** 2), rel=1e-14)
    np.testing.assert_allclose(g.autocorrelation(t), ref, rtol=0, atol=1e-14 * norm)
    np.testing.assert_allclose(g.cross_correlation(g, t), ref, rtol=0, atol=1e-14 * norm)
