import dataclasses
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import latticeframes as lf
from latticeframes.errors import AliasRisk, NoDecayInfo, TailNotAchievable, TooLarge
from latticeframes.generators import tail_bound
from latticeframes.periodization import (
    K_CAP,
    _coefficient_set,
    _lattice_sum,
    _series_values,
    choose_truncation,
    compute_cross_phi,
    grid_gamma,
    lattice_coefficients,
)

_SHEAR = [[1.0, 1.0], [0.0, 1.0]]


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return [[c, -s], [s, c]]


def test_phi_example_box(example_table):
    # indicator structure: 1 on [0,1/3] and [2/3,1), 0 between
    g = np.arange(1024) / 1024
    expected = ((g < 1 / 3) | (g >= 2 / 3)).astype(float)
    assert np.array_equal(example_table.values, expected)
    assert example_table.tail == 0.0


def test_phi_sinc_constant(sinc_table):
    assert np.max(np.abs(sinc_table.values - 1.0)) == 0.0


def test_phi_bspline_closed_form(bspline1_table):
    g = np.arange(4096) / 4096
    closed = (2.0 + np.cos(2 * np.pi * g)) / 3.0
    assert np.max(np.abs(bspline1_table.values - closed)) < 1e-9
    assert bspline1_table.values[0] == pytest.approx(1.0, abs=1e-9)
    assert bspline1_table.values[2048] == pytest.approx(1 / 3, abs=1e-9)


def test_phi_bspline_brute_force_oracle(unit_lattice):
    # direct truncated sum at a few off-grid sample points
    b1 = lf.BSpline(1)
    table = lf.compute_phi(b1, unit_lattice, 256)
    ks = np.arange(-10_000, 10_001)
    for j in (0, 37, 128, 200):
        gamma = j / 256
        brute = np.sum(np.sinc(gamma + ks) ** 4)
        assert table.values[j] == pytest.approx(brute, abs=1e-9)


def test_phi_rejects_bad_grid(unit_lattice):
    with pytest.raises(ValueError):
        lf.compute_phi(lf.Sinc(1), unit_lattice, 100)
    with pytest.raises(ValueError):
        lf.compute_phi(lf.Sinc(1), unit_lattice, 4)


def test_phi_tail_not_achievable(unit_lattice, translate_sum):
    # B-spline tables take the exact dual route, so the unreachable target is
    # checked on the truncation itself and on a direct-route generator
    # and the error names the generator
    with pytest.raises(TailNotAchievable, match=re.escape("bspline1(d=1): tail")):
        choose_truncation(lf.BSpline(1), unit_lattice, 1e-30)
    with pytest.raises(TailNotAchievable, match=re.escape("bspline1(d=1)+translate: tail")):
        lf.compute_phi(translate_sum(lf.BSpline(1), unit_lattice, [1]), unit_lattice, 64,
                       target_tail=1e-30)


def _scan(g, lattice, target, tails):
    """The plain linear scan k = 1, 2, ..., cap; ``tails`` caches tail_bound(k)."""
    for k in range(1, K_CAP[lattice.dim] + 1):
        if k > len(tails):
            tails.append(tail_bound(g, lattice, k))
        if tails[k - 1] <= target:
            return k, tails[k - 1]
    return None


def _sampled_bump():
    x = np.arange(-8, 9) * 0.25
    return lf.SampledSpatial(np.maximum(1 - np.abs(x) / 2, 0.0), [-2.0], 0.25,
                             support_radius=2.5)


@pytest.mark.parametrize("basis", [[[1.0]], [[0.7]], _SHEAR, _rotation(0.37)])
def test_choose_truncation_bisection_matches_linear_scan(basis):
    L = lf.new_lattice(basis)
    if L.dim == 1:
        gens = [lf.FrequencyBox([-1 / 3], [1 / 3]), lf.Sinc(1), lf.BSpline(1),
                lf.BSpline(3), lf.Gaussian(1.0), lf.Gaussian(0.3), _sampled_bump()]
    else:
        gens = [lf.FrequencyBox([-1 / 3] * 2, [1 / 3] * 2), lf.Sinc(2), lf.BSpline(1, 2),
                lf.BSpline(2, 2), lf.Gaussian(1.0, 2), lf.Gaussian(0.3, 2)]
    for g in gens:
        tails = []
        for target in 10.0 ** -np.arange(4, 15):
            expected = _scan(g, L, target, tails)
            if expected is None:
                with pytest.raises(TailNotAchievable):
                    choose_truncation(g, L, target)
            else:
                assert choose_truncation(g, L, target) == expected, (g.label, target)


def test_choose_truncation_unreachable_fails_fast(unit_lattice, monkeypatch):
    # the cap is checked first, so an unreachable target costs one tail bound
    calls = []

    def counted(*args):
        calls.append(args)
        return tail_bound(*args)

    monkeypatch.setattr(lf.periodization, "tail_bound", counted)
    with pytest.raises(TailNotAchievable):
        choose_truncation(lf.BSpline(1), unit_lattice, 1e-30)
    assert len(calls) == 1


_NAN_TAIL = """
import latticeframes as lf
from latticeframes.periodization import choose_truncation
"""


@pytest.mark.parametrize("code,error", [
    # a NaN target: no radius reaches it, and the doubling search never ended
    ("choose_truncation(lf.Gaussian(1.0), lf.new_lattice([[1.0]]), float('nan'))",
     "TailNotAchievable: gaussian(width=1.0,d=1): tail "),
    # a NaN envelope: every tail is NaN
    ("class Blurred(lf.Gaussian):\n"
     "    def decay_bound(self):\n"
     "        return lf.GaussianDecay(rate=1.0, constant=float('nan'))\n"
     "choose_truncation(Blurred(1.0), lf.new_lattice([[1.0]]), 1e-10)",
     "TailNotAchievable: gaussian(width=1.0,d=1): tail nan at radius cap 10000"),
    # the integral tail radius of a Gaussian stepped until its bound met the tolerance
    ("lf.Gaussian(1.0).decay_bound().tail_radius(1, float('nan'))",
     "ValueError: tail tolerance must be finite and positive, got nan"),
], ids=["nan_target", "nan_envelope", "nan_tolerance"])
def test_radius_search_on_nan_fails_fast(child_error, code, error):
    assert child_error(_NAN_TAIL + code).startswith(error)


def test_nonfinite_transform_fails_fast(child_error):
    # the default target 1e-10 * max(|k0|) was NaN, and the radius search spun
    code = ("import numpy as np\n"
            "import latticeframes as lf\n"
            "class Spiked(lf.Generator):\n"
            "    dim, label = 1, 'spiked'\n"
            "    def fourier(self, xi):\n"
            "        xi = np.asarray(xi, dtype=float)\n"
            "        return np.where(xi[:, 0] == 0.0, np.nan, lf.Gaussian(1.0).fourier(xi))\n"
            "    def spatial(self, x):\n"
            "        return lf.Gaussian(1.0).spatial(x)\n"
            "    def decay_bound(self):\n"
            "        return lf.Gaussian(1.0).decay_bound()\n"
            "lf.compute_phi(Spiked(), lf.new_lattice([[1.0]]), 16)\n")
    assert child_error(code) == ("NonFiniteInput: spiked: k = 0 term not finite at 1 of 16 "
                                 "grid points")


def test_nonfinite_dual_coefficients_fail_fast():
    # NaN autocorrelations off the centre gave a NaN dual table, classified
    # NotBessel without an error
    class Blotted(lf.Gaussian):
        def autocorrelation(self, t):
            return np.where(np.any(t != 0.0, axis=1), np.nan, super().autocorrelation(t))

    with pytest.raises(lf.errors.NonFiniteInput,
                       match=r"^gaussian\(width=1.0,d=1\): Fourier coefficient not finite "
                             r"at 6 of 7 lattice shifts$"):
        lf.compute_phi(Blotted(1.0), lf.new_lattice([[1.0]]), 16)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("basis", [[[1.0]], [[0.7]], np.eye(2).tolist(),
                                   (0.7 * np.eye(2)).tolist(), _SHEAR, _rotation(0.37)])
def test_dual_route_matches_direct_sum(order, basis):
    # the direct lattice sum stays the oracle for the exact dual route; its
    # radius is capped in d = 2 to keep the oracle cheap, at a larger tail
    L = lf.new_lattice(basis)
    d = L.dim
    g = lf.BSpline(order, d)
    n = 64 if d == 1 else 16
    table = lf.compute_phi(g, L, n)
    assert table.tail == 0.0
    radius = 1
    while radius < (1000 if d == 1 else 64) and tail_bound(g, L, radius) > 1e-10:
        radius += 1
    tail = tail_bound(g, L, radius)
    direct = _lattice_sum(lambda a: np.abs(g.fourier(a)) ** 2, grid_gamma(d, n),
                          lf.lattice.integer_box(d, radius), L.dual_basis).real / L.det_abs
    assert np.max(np.abs(table.values.ravel() - direct)) <= tail + 1e-13


_GAUSS_DUAL_BASES = [[[1.0]], [[0.7]], np.eye(2).tolist(), (0.7 * np.eye(2)).tolist(), _SHEAR,
                     _rotation(0.37), np.eye(3).tolist()]


@pytest.mark.parametrize("width", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("basis", _GAUSS_DUAL_BASES)
def test_dual_route_matches_direct_sum_gaussian(width, basis):
    # Gaussian tables sum a truncated Fourier series; the direct lattice sum
    # is the oracle, and the two differ by at most the sum of their tails
    L = lf.new_lattice(basis)
    d = L.dim
    g = lf.Gaussian(width, d)
    n = {1: 64, 2: 16, 3: 8}[d]
    table = lf.compute_phi(g, L, n)
    assert table.route == "dual" and table.tail > 0.0
    radius, tail = choose_truncation(g, L, 1e-12 * g.norm_squared())
    direct = _lattice_sum(lambda a: np.abs(g.fourier(a)) ** 2, grid_gamma(d, n),
                          lf.lattice.integer_box(d, radius), L.dual_basis).real / L.det_abs
    assert np.max(np.abs(table.values.ravel() - direct)) <= table.tail + tail + 1e-13


@pytest.mark.parametrize("width", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("basis", _GAUSS_DUAL_BASES)
def test_dual_tail_bounds_coefficient_tail(width, basis):
    # the stored tail is a proof: it dominates the l1 norm of the closed-form
    # coefficients c(B n) on the twenty shells past the truncation radius
    L = lf.new_lattice(basis)
    d = L.dim
    table = lf.compute_phi(lf.Gaussian(width, d), L, 8)
    radius = table.trunc_radius
    ns = lf.lattice.integer_box(d, radius + 20)
    ns = ns[np.max(np.abs(ns), axis=1) > radius]
    t2 = np.sum((ns @ L.basis.T) ** 2, axis=1)
    dropped = np.sum((width / math.sqrt(2.0)) ** d * np.exp(-math.pi * t2 / (2 * width**2)))
    assert dropped <= table.tail


def test_dual_coefficient_cube_charges_shell_m_at_distance_m():
    # the coefficients sit at gamma = 0, where shell m lies at distance m: the
    # nearly flat Gaussian(0.3) drops c_n for |n| >= 2, about 2e-31, at R = 1
    table = lf.compute_phi(lf.Gaussian(0.3), lf.new_lattice([[1.0]]), 64)
    assert (table.route, table.trunc_radius) == ("dual", 1)
    assert 0.0 < table.tail <= 1e-30


def test_wide_gaussian_on_fine_lattice_falls_back_to_direct():
    # the coefficient box would need radius ~2400 in d = 3; the cap is found
    # out of reach with one tail evaluation and the lattice sum takes over
    start = time.perf_counter()
    table = lf.compute_phi(lf.Gaussian(3.0, 3), lf.new_lattice(0.005 * np.eye(3)), 8)
    assert time.perf_counter() - start < 5.0
    assert table.route == "direct" and table.trunc_radius == 1
    assert np.all(np.isfinite(table.values))


def test_direct_cross_sum_past_the_point_cap_raises_at_once():
    # two narrow Gaussians take the direct route at R = 43 on Z^3: 87^3 terms
    # at 64^3 points, 1.7e11 terms x points against the cap of 1.024e9
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"658503 terms at 262144 points: .* cap 1024000000"):
        compute_cross_phi(lf.Gaussian(0.05, 3), lf.Gaussian(0.06, 3), lf.new_lattice(np.eye(3)), 64)
    assert time.perf_counter() - start < 1.0


def test_route_per_catalog_kind(unit_lattice, translate_sum):
    # every catalog kind and a user subclass: box indicators take the step
    # route, declared spatial boxes and autocorrelation envelopes the dual
    # route, everything else the direct one
    expected = {
        lf.FrequencyBox([-1 / 3], [1 / 3]): "step",
        lf.Sinc(1): "step",
        _sampled_bump(): "direct",
        lf.BSpline(1): "dual",
        lf.BSpline(3): "dual",
        lf.Gaussian(1.0): "dual",
        translate_sum(lf.BSpline(1), unit_lattice, [1]): "direct",
    }
    for g, route in expected.items():
        table = lf.compute_phi(g, unit_lattice, 64)
        assert table.route == route, g.label
        assert lf.perturbed_phi(table, [1]).route == route
        assert "route" not in lf.table_to_json(table)


def test_phi_is_the_self_pair_of_cross_phi(unit_lattice, translate_sum):
    # every catalog kind, sampled data and a user subclass: compute_phi is
    # compute_cross_phi of g against the same object, route included
    L07, shear = lf.new_lattice([[0.7]]), lf.new_lattice(_SHEAR)
    cases = [
        (lf.FrequencyBox([-1 / 3], [1 / 3]), unit_lattice),
        (lf.Sinc(2), shear),
        (lf.BSpline(1), L07),
        (lf.BSpline(2, 2), shear),
        (lf.Gaussian(1.0), unit_lattice),
        (lf.Gaussian(3.0), L07),
        (_sampled_bump(), unit_lattice),
        (translate_sum(lf.BSpline(1), unit_lattice, [1]), unit_lattice),
    ]
    for g, L in cases:
        table = lf.compute_phi(g, L, 32)
        cross = compute_cross_phi(g, g, L, 32)
        assert ((table.route, table.trunc_radius, table.tail)
                == (cross.route, cross.trunc_radius, cross.tail)), g.label
        np.testing.assert_array_equal(table.values, np.maximum(cross.values.real, 0.0))
    # the hat's exact box on 0.7 Z is |n| <= 2 (0.7 n in [-2, 2]), tighter
    # than the envelope cube of radius 3, whose faces hold only zeros
    table = lf.compute_phi(lf.BSpline(1), L07, 32)
    assert (table.route, table.trunc_radius, table.tail) == ("dual", 2, 0.0)


_RECORD_CASES = [  # (g, psi or None for the self pair, basis, route)
    (lf.Sinc(2), None, _SHEAR, "step"),
    (lf.BSpline(2, 2), None, _SHEAR, "dual"),
    (lf.Gaussian(1.0), None, [[1.0]], "dual"),
    (_sampled_bump(), None, [[1.0]], "direct"),
    (lf.BSpline(1), lf.BSpline(2), [[0.7]], "dual"),
    (lf.BSpline(1), _sampled_bump(), [[1.0]], "dual"),
    (lf.BSpline(1), lf.Gaussian(1.0), [[1.0]], "direct"),
    (lf.Sinc(2), lf.Gaussian(1.0, 2), _SHEAR, "direct"),
]


@pytest.mark.parametrize("g,psi,basis,route", _RECORD_CASES,
                         ids=lambda v: getattr(v, "label", None))
def test_cross_phi_record_on_every_route(g, psi, basis, route):
    # one record for every route: real and tagged by g for the self pair,
    # whose clip is compute_phi field for field; complex and tagged
    # "<psi> against <g>" for a cross pair, which has no zero threshold
    L = lf.new_lattice(basis)
    psi = g if psi is None else psi
    table = compute_cross_phi(g, psi, L, 32)
    assert table.route == route
    assert (table.essential_range is not None) == (route == "step")
    if psi is g:
        assert table.values.dtype == np.float64 and table.generator_tag == g.label
        phi = lf.compute_phi(g, L, 32)
        np.testing.assert_array_equal(phi.values, np.maximum(table.values.real, 0.0))
        for field in dataclasses.fields(table):
            if field.name != "values":
                assert getattr(phi, field.name) == getattr(table, field.name), field.name
    else:
        assert table.values.dtype == np.complex128
        assert table.generator_tag == f"{psi.label} against {g.label}"
        with pytest.raises(ValueError, match="complex"):
            table.zero_threshold()
        with pytest.raises(ValueError, match="complex"):
            lf.classify_table(table)


@pytest.mark.parametrize("g,basis", [(lf.BSpline(2, 2), _SHEAR), (lf.Gaussian(1.0, 3), np.eye(3))],
                         ids=lambda v: getattr(v, "label", None))
def test_dual_self_table_takes_half_the_autocorrelations(g, basis):
    # the coefficient set of the self pair is symmetric, so ceil(m/2) of its
    # m autocorrelations give the rest by c_(-n) = conj(c_n), and the table
    # equals the one from every autocorrelation bit for bit
    L, target = lf.new_lattice(basis), 1e-10 * g.norm_squared()
    ns, _ = _coefficient_set(g, g, L, target)
    full = _series_values(ns, g.autocorrelation(ns @ L.basis.T), 16, hermitian=True)
    shifts, autocorrelation = [], g.autocorrelation
    g.autocorrelation = lambda t: shifts.append(len(t)) or autocorrelation(t)
    table = compute_cross_phi(g, g, L, 16, target)
    assert table.route == "dual"
    assert shifts == [(len(ns) + 1) // 2]
    assert np.array_equal(table.values, full)


def _complex_series(ns, coeffs, n):
    """N^d ifftn of the coefficients scattered mod N: the complex sum."""
    grid = np.zeros((n,) * ns.shape[1], dtype=complex)
    np.add.at(grid, tuple((ns % n).T), coeffs)
    return grid.size * np.fft.ifftn(grid)


@pytest.mark.parametrize("g,basis,n", [
    (lf.BSpline(1), [[0.7]], 64),
    (lf.BSpline(2, 2), _SHEAR, 32),
    (lf.Gaussian(1.0, 2), _rotation(0.37), 32),
    (lf.Gaussian(1.0, 3), np.eye(3).tolist(), 16),
], ids=lambda v: getattr(v, "label", None))
def test_dual_self_table_takes_a_real_inverse_fft(g, basis, n):
    # the self pair's coefficients are Hermitian, so the half spectrum and
    # one real inverse FFT give the real part of the complex sum
    L = lf.new_lattice(basis)
    table = compute_cross_phi(g, g, L, n)
    assert (table.route, table.values.dtype) == ("dual", np.float64)
    ns, _ = _coefficient_set(g, g, L, None)
    ref = _complex_series(ns, lattice_coefficients(g, L, ns), n).real
    assert np.max(np.abs(table.values - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("g,psi,basis", [(lf.BSpline(1), lf.BSpline(2), [[0.7]]),
                                         (lf.BSpline(2, 2), lf.BSpline(1, 2), _SHEAR)],
                         ids=lambda v: getattr(v, "label", None))
def test_dual_cross_table_keeps_the_complex_inverse_fft(g, psi, basis):
    L = lf.new_lattice(basis)
    table = compute_cross_phi(g, psi, L, 32)
    assert (table.route, table.values.dtype) == ("dual", np.complex128)
    ns, _ = _coefficient_set(g, psi, L, None)
    ref = _complex_series(ns, g.cross_correlation(psi, ns @ L.basis.T), 32)
    assert np.array_equal(table.values, ref)


def test_self_pair_direct_route_evaluates_fourier_once_per_point():
    # the k = 0 term, which sets the default target, and then the ring of the
    # 8 other terms of radius 1 on 16^2 points, each point's transform taken
    # once as |fhat|^2
    class PlainSinc(lf.Sinc):  # the sinc without its indicator box
        def indicator_box(self):
            return None

    L = lf.new_lattice(_SHEAR)
    for build in (lambda g: lf.compute_phi(g, L, 16).route,
                  lambda g: compute_cross_phi(g, g, L, 16).route):
        g, points = PlainSinc(2), []
        fourier = g.fourier
        g.fourier = lambda xi: points.append(len(xi)) or fourier(xi)
        assert build(g) == "direct"
        assert sum(points) == 9 * 256


def test_phi_bspline_d2_exact_bounds():
    # the hat in d = 2 decays too slowly for a certified lattice-sum tail at
    # the default target; its table is a trigonometric polynomial instead
    table = lf.compute_phi(lf.BSpline(1, 2), lf.new_lattice(np.eye(2)), 32)
    assert table.tail == 0.0 and table.trunc_radius == 2
    cls = lf.classify_table(table)
    assert cls.verdict.value == "RieszSequence"
    assert cls.lower == pytest.approx(1 / 9, abs=1e-12)
    assert cls.upper == pytest.approx(1.0, abs=1e-12)


def test_phi_dual_route_falls_back_on_huge_coefficient_box():
    # on a very fine lattice the coefficient box would have radius 400 and
    # hold 801^3 terms, while the lattice sum needs a few: the direct route
    L = lf.new_lattice(0.005 * np.eye(3))
    table = lf.compute_phi(lf.BSpline(1, 3), L, 8)
    assert table.tail > 0.0
    assert table.trunc_radius < 10


def test_phi_propagates_no_decay(unit_lattice):
    sampled = lf.SampledSpatial(np.array([1.0, 2.0, 1.0]), [-0.5], 0.5)
    with pytest.raises(NoDecayInfo):
        lf.compute_phi(sampled, unit_lattice, 64)


def test_phi_nonnegative_and_normalized(sinc_table, bspline1_table, gauss_table):
    for table, g in (
        (sinc_table, lf.Sinc(1)),
        (bspline1_table, lf.BSpline(1)),
        (gauss_table, lf.Gaussian(1.0)),
    ):
        assert np.all(table.values >= 0.0)
        assert float(np.mean(table.values)) == pytest.approx(
            g.norm_squared(), abs=1e-6
        )


def test_phi_periodicity_via_wrap(unit_lattice, gauss_table):
    # the table is indexed on [0,1); wrapped coordinates hit identical samples
    g = lf.Gaussian(1.0)
    pts = np.array([[0.25], [1.25], [-0.75]])
    wrapped = np.mod(pts, 1.0)
    idx = [int(round(w[0] * 4096)) for w in wrapped]
    assert idx[0] == idx[1] == idx[2]


# ---------------------------------------------------------------------------
# spatial periodization
# ---------------------------------------------------------------------------


def test_periodize_l1_gaussian(unit_lattice):
    _, (cell, full) = lf.periodize_l1(lf.Gaussian(1.0), unit_lattice, [[0.3]], 20)
    assert cell == pytest.approx(1.0, abs=1e-8)
    assert full == pytest.approx(1.0, abs=1e-8)


def test_periodize_l1_partition_of_unity(unit_lattice):
    pts = [[0.0], [0.21], [0.5], [0.99]]
    psi, _ = lf.periodize_l1(lf.BSpline(1), unit_lattice, pts, 2)
    assert np.max(np.abs(psi.real - 1.0)) <= 1e-12


def test_periodize_l1_coarse_lattice():
    L2 = lf.new_lattice([[2.0]])
    pts = [[0.0], [0.5], [1.0], [1.5]]
    psi, (cell, full) = lf.periodize_l1(lf.BSpline(1), L2, pts, 2)
    assert cell == pytest.approx(1.0, abs=1e-8)
    assert full == pytest.approx(1.0, abs=1e-8)
    assert np.std(psi.real) > 0.1  # non-constant on the coarse cell
    assert psi.real[2] == pytest.approx(0.0, abs=1e-12)


def test_periodize_l1_rejects_sinc(unit_lattice):
    with pytest.raises(NoDecayInfo):
        lf.periodize_l1(lf.Sinc(1), unit_lattice, [[0.0]], 4)


def test_periodize_l1_point_validation(unit_lattice):
    with pytest.raises(ValueError):
        lf.periodize_l1(lf.BSpline(1), unit_lattice, [[1.5]], 2)


def test_periodize_l1_past_the_point_cap_raises_before_the_box():
    # radius 1000 in 3-d: the integer box alone would hold 8e9 vectors
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"8012006001 terms at 32769 points"):
        lf.periodize_l1(lf.Gaussian(1.0, 3), lf.new_lattice(np.eye(3)), [[0.1, 0.2, 0.3]], 1000)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------


def test_autocorrelation_sinc(unit_lattice):
    g = lf.Sinc(1)
    # oracle: quadrature over the unit frequency box
    for n in range(4):
        oracle, _ = quad(lambda xi: np.cos(2 * np.pi * xi * n), -0.5, 0.5)
        val = lf.autocorrelation(g, unit_lattice, [n])
        assert val.real == pytest.approx(oracle, abs=1e-9)
        assert abs(val.imag) < 1e-12
    assert lf.autocorrelation(g, unit_lattice, [0]).real == pytest.approx(1.0)
    assert abs(lf.autocorrelation(g, unit_lattice, [1])) < 1e-12


def test_autocorrelation_bspline_overlaps(unit_lattice):
    # oracle: direct overlap integrals of hat functions
    b1 = lf.BSpline(1)

    def hat(x):
        return max(0.0, 1.0 - abs(x))

    for n in range(4):
        oracle, _ = quad(lambda x: hat(x) * hat(x + n), -1, 1, limit=100)
        assert lf.autocorrelation(b1, unit_lattice, [n]).real == pytest.approx(
            oracle, abs=1e-9
        )
    assert lf.autocorrelation(b1, unit_lattice, [0]).real == pytest.approx(2 / 3)
    assert lf.autocorrelation(b1, unit_lattice, [1]).real == pytest.approx(1 / 6)
    assert lf.autocorrelation(b1, unit_lattice, [-1]).real == pytest.approx(1 / 6)
    assert abs(lf.autocorrelation(b1, unit_lattice, [2])) < 1e-9


@pytest.mark.parametrize("n", [[0.7], [True], 0.7], ids=["float", "bool", "bare_float"])
def test_autocorrelation_takes_integer_shifts_only(unit_lattice, n):
    # a fractional index was once truncated: 0.7 gave the hat's c_0 = 2/3
    with pytest.raises(ValueError, match=r"shift index must hold integers, got \[?(0.7|True)"):
        lf.autocorrelation(lf.BSpline(1), unit_lattice, n)


def _exact_bspline(order, x):
    """Centered B-spline of the given degree at x, in exact rational arithmetic."""
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(order + 2):
        t = x + Fraction(order + 1, 2) - j
        if t > 0:
            acc += (-1) ** j * math.comb(order + 1, j) * t**order
    return acc / math.factorial(order)


@pytest.mark.parametrize("a", [1.0, 0.7])
def test_autocorrelation_bspline_exact(a):
    # b_m * b_m(-.) = b_(2m+1): autocorrelations and Gram entries are exact values
    L = lf.new_lattice([[a]])
    for m in range(1, 8):
        g = lf.BSpline(m)
        gram = lf.gram_matrix(g, L, 10)
        for n in range(-20, 21):
            ref = float(_exact_bspline(2 * m + 1, a * n))
            assert abs(lf.autocorrelation(g, L, [n]) - ref) <= 1e-14
            assert abs(gram.entry([0], [n]) - ref) <= 1e-14


# catalog generators with closed-form autocorrelations, the lattice they are
# checked on, and shift indices
_REFERENCE_CASES = [
    (lf.FrequencyBox([-1 / 3], [1 / 3]), [[1.0]], [[n] for n in range(-3, 4)]),
    (lf.Sinc(2), [[1.0, 1.0], [0.0, 1.0]], [[0, 0], [1, 0], [0, 1], [1, -1], [-1, 2]]),
    (lf.Gaussian(1.0, 2), np.eye(2), [[0, 0], [1, 0], [1, 1], [-2, 1]]),
    (lf.BSpline(1), [[0.7]], [[n] for n in range(-4, 5)]),
    (lf.BSpline(2), [[0.7]], [[n] for n in range(-4, 5)]),
    (lf.BSpline(3), [[0.7]], [[n] for n in range(-4, 5)]),
]


def test_autocorrelation_zero_is_norm(unit_lattice):
    for g in (lf.Sinc(1), lf.BSpline(1), lf.BSpline(3), lf.Gaussian(1.0),
              lf.FrequencyBox([-1 / 3], [1 / 3])):
        c0 = lf.autocorrelation(g, unit_lattice, [0])
        assert c0.real == pytest.approx(g.norm_squared(), abs=1e-9)
        assert abs(c0.imag) < 1e-12
    for g, basis, _ in _REFERENCE_CASES:
        c0 = lf.autocorrelation(g, lf.new_lattice(basis), [0] * g.dim)
        assert c0.real == pytest.approx(g.norm_squared(), abs=1e-15)
        # the base-class quadrature is the reference route for the norm too;
        # Generator.autocorrelation would dispatch to the closed form
        ref = lf.Generator.cross_correlation(g, g, np.zeros((1, g.dim)))[0]
        assert c0 == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("case", range(len(_REFERENCE_CASES)))
def test_autocorrelation_matches_quadrature_route(case):
    # closed forms against the generic frequency quadrature, which stays
    # accurate to about 4e-13 on these inputs
    g, basis, ns = _REFERENCE_CASES[case]
    L = lf.new_lattice(basis)
    t = np.array(ns, dtype=float) @ L.basis.T
    ref = lf.Generator.cross_correlation(g, g, t)
    np.testing.assert_allclose(g.autocorrelation(t), ref, rtol=0, atol=1e-9)
    for n, r in zip(ns, ref):
        assert lf.autocorrelation(g, L, n) == pytest.approx(r, abs=1e-9)


def test_autocorrelation_gaussian_oracle(unit_lattice):
    g = lf.Gaussian(1.0)
    for n in (1, 2):
        oracle, _ = quad(
            lambda x: np.exp(-np.pi * x**2) * np.exp(-np.pi * (x + n) ** 2), -12, 12
        )
        assert lf.autocorrelation(g, unit_lattice, [n]).real == pytest.approx(
            oracle, abs=1e-10
        )


def test_autocorrelation_sampled_matches_bspline(unit_lattice):
    step = 1 / 64
    xs = np.arange(-1.0, 1.0 + step / 2, step)
    sampled = lf.SampledSpatial(np.maximum(0, 1 - np.abs(xs)), [xs[0]], step,
                                support_radius=32.0)
    for n in (0, 1):
        ref = lf.autocorrelation(lf.BSpline(1), unit_lattice, [n]).real
        val = lf.autocorrelation(sampled, unit_lattice, [n]).real
        assert val == pytest.approx(ref, abs=1e-3)


# ---------------------------------------------------------------------------
# Fourier coefficients of the table
# ---------------------------------------------------------------------------


def test_coeffs_sinc(sinc_table):
    ns, coeffs = lf.phi_fourier_coeffs(sinc_table, 3)
    assert ns[:, 0].tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert coeffs[3].real == pytest.approx(1.0, abs=1e-12)
    for n in (-3, -2, -1, 1, 2, 3):
        assert abs(coeffs[3 + n]) < 1e-10


def test_coeffs_bspline(bspline1_table, unit_lattice):
    _, coeffs = lf.phi_fourier_coeffs(bspline1_table, 2)  # n = -2..2
    assert coeffs[2].real == pytest.approx(2 / 3, abs=1e-8)
    assert coeffs[3].real == pytest.approx(1 / 6, abs=1e-8)
    assert coeffs[1].real == pytest.approx(1 / 6, abs=1e-8)
    assert abs(coeffs[4]) < 1e-8
    # duality: matches the closed-form autocorrelation
    for n in (-2, -1, 0, 1, 2):
        auto = lf.autocorrelation(lf.BSpline(1), unit_lattice, [n])
        assert coeffs[2 + n] == pytest.approx(auto, abs=1e-6)


def test_coeffs_box_c0(example_table):
    _, coeffs = lf.phi_fourier_coeffs(example_table, 2)
    assert coeffs[2].real == pytest.approx(2 / 3, abs=2 / 1024)


def test_coeffs_hermitian_symmetry(gauss_table):
    _, coeffs = lf.phi_fourier_coeffs(gauss_table, 4)
    for n in range(5):
        assert coeffs[4 - n] == pytest.approx(np.conj(coeffs[4 + n]), abs=1e-10)


def test_coeffs_alias_guard(sinc_table):
    with pytest.raises(AliasRisk):
        lf.phi_fourier_coeffs(sinc_table, 4096 // 4 + 1)


# ---------------------------------------------------------------------------
# perturbation identity
# ---------------------------------------------------------------------------


def test_perturbed_phi_zero_shift(bspline1_table):
    pert = lf.perturbed_phi(bspline1_table, [0])
    assert np.allclose(pert.values, 4.0 * bspline1_table.values, rtol=0, atol=0)
    assert pert.tail == pytest.approx(4.0 * bspline1_table.tail)


@pytest.mark.parametrize("n", [[0.5], [True], [1, 0]], ids=["float", "bool", "too_long"])
def test_perturbed_phi_takes_integer_shifts_only(bspline1_table, n):
    # a fractional index was once truncated: 0.5 gave the n = 0 table,
    # tagged +translate[0]
    with pytest.raises(ValueError, match="shift index must"):
        lf.perturbed_phi(bspline1_table, n)


def test_perturbed_phi_sinc_values(sinc_table):
    pert = lf.perturbed_phi(sinc_table, [1])
    g = np.arange(4096) / 4096
    assert np.max(np.abs(pert.values - 4 * np.cos(np.pi * g) ** 2)) < 1e-12
    assert pert.values[0] == pytest.approx(4.0)
    assert pert.values[2048] == pytest.approx(0.0, abs=1e-30)


def test_perturbed_phi_bspline_point(bspline1_table):
    # factor |1 + exp(-i pi/2)|^2 = 2 at gamma = 1/4, phi(1/4) = 2/3
    pert = lf.perturbed_phi(bspline1_table, [1])
    assert pert.values[1024] == pytest.approx(4.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("preset,n", [("sinc", 1), ("sinc", 2),
                                      ("bspline1", 1), ("bspline1", 2)])
def test_perturbed_phi_matches_direct(preset, n, unit_lattice, translate_sum):
    base = lf.Sinc(1) if preset == "sinc" else lf.BSpline(1)
    table = lf.compute_phi(base, unit_lattice, 1024)
    pert = lf.perturbed_phi(table, [n])
    direct = lf.compute_phi(translate_sum(base, unit_lattice, [n]), unit_lattice, 1024)
    assert np.max(np.abs(pert.values - direct.values)) < 1e-8
    assert np.all(pert.values >= 0.0)


def test_table_csv_export(unit_lattice):
    table = lf.compute_phi(lf.Sinc(1), unit_lattice, 16)
    text = lf.table_to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "gamma_1,phi"
    assert len(lines) == 17
    assert lines[1] == "0,1"
    meta = lf.table_to_json(table)
    assert meta["grid_res"] == 16 and len(meta["values"]) == 16


@pytest.mark.parametrize("a,expected", [
    # hat translates spaced by 2: orthogonal, all overlaps vanish
    (2.0, {0: 2 / 3, 1: 0.0, 2: 0.0}),
    # half-integer spacing: overlaps are cubic B-spline samples b3(n/2)
    (0.5, {0: 2 / 3, 1: 23 / 48, 2: 1 / 6, 3: 1 / 48, 4: 0.0}),
])
def test_coefficient_duality_nonunit_lattice(a, expected):
    # on a non-identity lattice the shift inside the overlap integral is B n,
    # so the three routes only agree with the lattice-indexed form
    L = lf.new_lattice([[a]])
    b1 = lf.BSpline(1)
    table = lf.compute_phi(b1, L, 2048)
    n_max = max(expected)
    _, coeffs = lf.phi_fourier_coeffs(table, n_max)

    xs = np.linspace(-1, 1, 200001)
    hat = np.maximum(0, 1 - np.abs(xs))
    for n, ref in expected.items():
        overlap = float(np.trapezoid(hat * np.maximum(0, 1 - np.abs(xs + a * n)), xs))
        assert overlap == pytest.approx(ref, abs=1e-9)  # oracle sanity
        assert coeffs[n_max + n].real == pytest.approx(ref, abs=1e-8)
        assert lf.autocorrelation(b1, L, [n]).real == pytest.approx(ref, abs=1e-9)


def test_phi_three_dimensional_smoke():
    L3 = lf.new_lattice(np.eye(3))
    table = lf.compute_phi(lf.Sinc(3), L3, 8)
    assert table.values.shape == (8, 8, 8)
    assert np.max(np.abs(table.values - 1.0)) == 0.0


def test_perturbed_phi_shear_factor():
    L = lf.new_lattice([[1.0, 1.0], [0.0, 1.0]])
    table = lf.compute_phi(lf.Sinc(2), L, 32)
    pert = lf.perturbed_phi(table, [1, 1])
    g = np.arange(32) / 32
    factor = 4 * np.cos(np.pi * (g[:, None] + g[None, :])) ** 2
    assert np.max(np.abs(pert.values - factor)) == 0.0
