import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticeframes as lf
from latticeframes.classify import Verdict
from latticeframes.errors import EpsilonTooSmall, NotCompactlySupported


def _family(verdict):
    """Coarse verdict family used by the scaling property."""
    order = {
        Verdict.NOT_BESSEL: 0,
        Verdict.BESSEL_NOT_FRAME: 1,
        Verdict.FRAME_SEQUENCE: 2,
        Verdict.PARSEVAL_FRAME_SEQUENCE: 2,
        Verdict.RIESZ_SEQUENCE: 3,
        Verdict.ORTHONORMAL_SEQUENCE: 3,
    }
    return order[verdict]


def test_bounds_sinc(sinc_table):
    b = lf.spectral_bounds(sinc_table)
    assert b.sup_all == pytest.approx(1.0)
    assert b.inf_all == pytest.approx(1.0)
    assert b.zero_fraction == 0.0


def test_bounds_example(example_table):
    b = lf.spectral_bounds(example_table)
    assert b.sup_all == pytest.approx(1.0)
    assert b.inf_offzero == pytest.approx(1.0)
    assert b.zero_fraction == pytest.approx(1 / 3, abs=2 / 1024)


def test_bounds_bspline(bspline1_table):
    b = lf.spectral_bounds(bspline1_table)
    assert b.inf_all == pytest.approx(1 / 3, abs=1e-6)
    assert b.sup_all == pytest.approx(1.0, abs=1e-6)
    assert b.zero_fraction == 0.0
    assert b.inf_all <= b.inf_offzero <= b.sup_all


def test_bounds_epsilon_guard(gauss_table):
    # the Gaussian table has a positive tail (B-spline tables are exact)
    assert gauss_table.tail > 0.0
    with pytest.raises(EpsilonTooSmall):
        lf.spectral_bounds(gauss_table, eps_zero=gauss_table.tail)


def test_every_table_consumer_guards_epsilon(unit_lattice):
    g = lf.Gaussian(1.0)
    table = lf.compute_phi(g, unit_lattice, 256)
    assert table.tail > 0.0
    with pytest.raises(EpsilonTooSmall):
        lf.project_onto_span(g, unit_lattice, g, table, eps_zero=table.tail)
    with pytest.raises(EpsilonTooSmall):
        lf.perturbation_frame_check(table, [1], eps_zero=table.tail)
    # B-spline tables are exact; the threshold check reads only the table's tail
    hat = lf.compute_phi(lf.BSpline(1), unit_lattice, 256)
    with pytest.raises(EpsilonTooSmall):
        lf.compact_support_riesz_check(lf.BSpline(1), unit_lattice,
                                       dataclasses.replace(hat, tail=1e-12),
                                       eps_zero=1e-12)


def test_parameters_must_be_finite_and_positive(unit_lattice, example_table, sinc_table):
    # no tail is <= a NaN target, and a zero or negative threshold would flip
    # the box's Parseval or the sinc's orthonormal verdict
    with pytest.raises(ValueError, match="target_tail"):
        lf.compute_phi(lf.Gaussian(1.0), unit_lattice, 64, target_tail=math.nan)
    with pytest.raises(ValueError, match="eps_zero"):
        lf.classify_table(example_table, eps_zero=0.0)
    with pytest.raises(ValueError, match="class_tol"):
        lf.classify_table(sinc_table, class_tol=-1.0)
    with pytest.raises(ValueError, match="eps_zero"):
        lf.classify_weighted_exponentials(np.ones(8), eps_zero=math.inf)
    with pytest.raises(ValueError, match="step"):
        lf.SampledSpatial(np.ones(5), [0.0], math.nan)


def test_classify_example(example_table):
    cls = lf.classify_table(example_table)
    assert cls.verdict is Verdict.PARSEVAL_FRAME_SEQUENCE
    assert cls.lower == pytest.approx(1.0)
    assert cls.upper == pytest.approx(1.0)
    assert cls.evidence["zero_fraction"] > 0.25  # not a Riesz sequence


def test_classify_sinc(sinc_table):
    assert lf.classify_table(sinc_table).verdict is Verdict.ORTHONORMAL_SEQUENCE


def test_classify_bspline(bspline1_table):
    cls = lf.classify_table(bspline1_table)
    assert cls.verdict is Verdict.RIESZ_SEQUENCE
    assert cls.lower == pytest.approx(1 / 3, abs=1e-6)
    assert cls.upper == pytest.approx(1.0, abs=1e-6)


def test_classify_gauss(gauss_table):
    cls = lf.classify_table(gauss_table)
    assert cls.verdict is Verdict.RIESZ_SEQUENCE
    assert 0.4 < cls.lower < cls.upper < 1.01


def test_not_bessel_ceiling():
    bounds = lf.SpectralBounds(sup_all=1e13, inf_all=1.0, inf_offzero=1.0,
                               zero_fraction=0.0, eps_zero=1e-8)
    assert lf.classify_translates(bounds).verdict is Verdict.NOT_BESSEL


def test_weighted_exponentials_constant():
    cls = lf.classify_weighted_exponentials(np.ones(512), eps_zero=1e-8)
    assert cls.verdict is Verdict.ORTHONORMAL_SEQUENCE


def test_weighted_exponentials_half_indicator():
    g = np.arange(4096) / 4096
    psi = (g < 0.5).astype(complex)
    cls = lf.classify_weighted_exponentials(psi, eps_zero=1e-8)
    assert cls.verdict is Verdict.PARSEVAL_FRAME_SEQUENCE
    assert cls.evidence["zero_fraction"] == pytest.approx(0.5, abs=2 / 4096)


def test_weighted_exponentials_ramp():
    # inf over off-zero samples sinks with the grid: no positive lower bound
    g = np.arange(4096) / 4096
    cls = lf.classify_weighted_exponentials(g.astype(complex), eps_zero=1e-8)
    assert cls.verdict is Verdict.BESSEL_NOT_FRAME


def test_weighted_exponentials_empty():
    with pytest.raises(ValueError):
        lf.classify_weighted_exponentials([], eps_zero=1e-8)


# ---------------------------------------------------------------------------
# compact support checks
# ---------------------------------------------------------------------------


def test_compact_riesz_bspline_unit(unit_lattice, bspline1_table):
    chk = lf.compact_support_riesz_check(lf.BSpline(1), unit_lattice, bspline1_table)
    assert chk.is_riesz
    assert chk.min_value == pytest.approx(1 / 3, abs=1e-6)
    assert chk.witness_gamma == pytest.approx([0.5])


def test_compact_riesz_coarse_lattice():
    # translates by 2Z of the hat are orthogonal: constant phi, still Riesz
    L2 = lf.new_lattice([[2.0]])
    table = lf.compute_phi(lf.BSpline(1), L2, 1024)
    chk = lf.compact_support_riesz_check(lf.BSpline(1), L2, table)
    assert chk.is_riesz
    assert chk.min_value == pytest.approx(2 / 3, abs=1e-6)
    assert np.max(np.abs(table.values - 2 / 3)) < 1e-6


def test_compact_riesz_dense_lattice():
    # half-integer translates: phi vanishes at gamma = 1/2
    Lh = lf.new_lattice([[0.5]])
    table = lf.compute_phi(lf.BSpline(1), Lh, 1024)
    chk = lf.compact_support_riesz_check(lf.BSpline(1), Lh, table)
    assert not chk.is_riesz
    assert chk.witness_gamma == pytest.approx([0.5])
    assert chk.min_value < 1e-12


def test_compact_riesz_sampled_hat(unit_lattice):
    step = 1 / 64
    xs = np.arange(-1.0, 1.0 + step / 2, step)
    hat = lf.SampledSpatial(np.maximum(0, 1 - np.abs(xs)), [xs[0]], step,
                            support_radius=32.0)
    table = lf.compute_phi(hat, unit_lattice, 1024)
    chk = lf.compact_support_riesz_check(hat, unit_lattice, table)
    assert chk.is_riesz
    assert chk.min_value == pytest.approx(1 / 3, abs=1e-3)


def test_compact_riesz_rejects_sinc(unit_lattice, sinc_table):
    with pytest.raises(NotCompactlySupported):
        lf.compact_support_riesz_check(lf.Sinc(1), unit_lattice, sinc_table)
    gauss = lf.Gaussian(1.0)
    with pytest.raises(NotCompactlySupported):
        lf.compact_support_riesz_check(gauss, unit_lattice, lf.compute_phi(gauss, unit_lattice, 64))


def test_compact_riesz_accepts_user_subclass_with_box(unit_lattice, translated):
    # the check reads spatial_box(), not a list of catalog classes: a
    # translated hat declares its shifted box and keeps the hat's phi
    class BoxedTranslate(translated):
        def spatial_box(self):
            lo, hi = self.base.spatial_box()
            return lo + self.shift, hi + self.shift

        def autocorrelation(self, t):
            return self.base.autocorrelation(t)

    g = BoxedTranslate(lf.BSpline(1), [0.3])
    table = lf.compute_phi(g, unit_lattice, 256)
    assert table.route == "dual"
    chk = lf.compact_support_riesz_check(g, unit_lattice, table)
    assert chk.is_riesz
    assert chk.min_value == pytest.approx(1 / 3, abs=1e-12)


# ---------------------------------------------------------------------------
# perturbation frame check
# ---------------------------------------------------------------------------


def test_perturbation_sinc_loses_frame(sinc_table):
    chk = lf.perturbation_frame_check(sinc_table, [1])
    assert not chk.frame_for_original
    assert chk.inf_on_original_support < 1e-20


def test_perturbation_example_keeps_frame(example_table):
    # the factor's only zero (gamma = 1/2) falls inside the original zero set
    chk = lf.perturbation_frame_check(example_table, [1])
    assert chk.frame_for_original
    assert chk.inf_on_original_support == pytest.approx(1.0, abs=5e-3)


def test_perturbation_zero_shift(bspline1_table):
    base = lf.classify_table(bspline1_table)
    chk = lf.perturbation_frame_check(bspline1_table, [0])
    assert chk.frame_for_original
    assert chk.classification.lower == pytest.approx(4 * base.lower, rel=1e-12)
    assert chk.classification.upper == pytest.approx(4 * base.upper, rel=1e-12)


def test_perturbed_box_lower_bound_is_the_grid_minimum_on_the_support(unit_lattice):
    # the factor 4 cos^2(pi gamma) is continuous, so the perturbed table is
    # read from the plain grid: no value at the edge of the box is dropped
    table = lf.compute_phi(lf.FrequencyBox([-0.1], [0.1]), unit_lattice, 1024)
    chk = lf.perturbation_frame_check(table, [1])
    assert chk.classification.lower == chk.inf_on_original_support


def test_classify_table_is_the_tree_over_spectral_bounds(unit_lattice, bspline1_table,
                                                         translate_sum):
    # one table per route; the step table is a sliver of phi = 2 between
    # grid points, which only its essential range shows
    a = 0.3 + 0.3 / 4096
    step = lf.compute_phi(lf.FrequencyBox([a - 1.0], [a + 1e-4]), unit_lattice, 4096)
    direct = lf.compute_phi(translate_sum(lf.Gaussian(1.0), unit_lattice, [1]), unit_lattice, 256)
    tables = (step, bspline1_table, direct)
    assert [t.route for t in tables] == ["step", "dual", "direct"]
    for table in tables:
        cls = lf.classify_table(table)
        tree = lf.classify_translates(lf.spectral_bounds(table))
        assert (cls.verdict, cls.lower, cls.upper) == (tree.verdict, tree.lower, tree.upper)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["example", "sinc", "bspline1", "gauss"])
def test_verdict_stable_under_refinement(name, unit_lattice):
    makers = {
        "example": lf.FrequencyBox([-1 / 3], [1 / 3]),
        "sinc": lf.Sinc(1),
        "bspline1": lf.BSpline(1),
        "gauss": lf.Gaussian(1.0),
    }
    verdicts = set()
    for n in (256, 512, 1024, 2048):
        table = lf.compute_phi(makers[name], unit_lattice, n)
        verdicts.add(lf.classify_table(table).verdict)
    assert len(verdicts) == 1


def test_parseval_not_riesz_separation(unit_lattice):
    box = lf.FrequencyBox([-1 / 3], [1 / 3])
    for n in (256, 512, 1024, 2048):
        cls = lf.classify_table(lf.compute_phi(box, unit_lattice, n))
        assert cls.verdict is Verdict.PARSEVAL_FRAME_SEQUENCE
        assert cls.evidence["zero_fraction"] >= 0.3


def test_scaling_equivariance(unit_lattice):
    class Scaled(lf.Generator):
        def __init__(self, base, c):
            self.base, self.c, self.dim = base, c, base.dim
            self.label = f"{c}*{base.label}"

        def fourier(self, xi):
            return self.c * self.base.fourier(xi)

        def spatial(self, x):
            return self.c * self.base.spatial(x)

        def autocorrelation(self, t):
            return self.c**2 * self.base.autocorrelation(t)

        def spatial_box(self):
            return self.base.spatial_box()

        def autocorrelation_decay(self):
            db = self.base.autocorrelation_decay()
            return None if db is None else self._scaled(db)

        def norm_squared(self):
            return self.c**2 * self.base.norm_squared()

        def decay_bound(self):
            return self._scaled(self.base.decay_bound())

        def _scaled(self, db):
            import dataclasses

            if isinstance(db, lf.CompactFrequencySupport):
                return dataclasses.replace(db, peak=self.c**2 * db.peak)
            if isinstance(db, lf.PolynomialDecay):
                return dataclasses.replace(db, constant=self.c**2 * db.constant,
                                           peak=self.c**2 * db.peak)
            return dataclasses.replace(db, constant=self.c**2 * db.constant)

    # forwarding the autocorrelation with the spatial box (B-spline) or the
    # envelope (Gaussian) keeps both sides on the dual route; the plain box
    # takes the step route and the scaled one, 4 times an indicator, the
    # direct route, which meets the exact values on the grid
    for base in (lf.BSpline(1), lf.FrequencyBox([-1 / 3], [1 / 3]), lf.Gaussian(1.0)):
        plain = lf.classify_table(lf.compute_phi(base, unit_lattice, 512))
        scaled = lf.classify_table(lf.compute_phi(Scaled(base, 2.0), unit_lattice, 512))
        assert _family(scaled.verdict) == _family(plain.verdict)
        assert scaled.lower == pytest.approx(4.0 * plain.lower, rel=1e-12)
        assert scaled.upper == pytest.approx(4.0 * plain.upper, rel=1e-12)


def test_oracle_envelope_consistency(unit_lattice):
    # grid bounds against Gram sections at M=64 for the Riesz-family presets
    for g, table_n in ((lf.Sinc(1), 512), (lf.BSpline(1), 512), (lf.Gaussian(1.0), 512)):
        cls = lf.classify_table(lf.compute_phi(g, unit_lattice, table_n))
        lo, hi = lf.gram_eigen_bounds(lf.gram_matrix(g, unit_lattice, 64))
        assert lo >= cls.lower - 0.05
        assert hi <= cls.upper + 0.05
        assert lo > cls.lower / 2
    # finite sections of the box case go singular: not a Riesz sequence
    box = lf.FrequencyBox([-1 / 3], [1 / 3])
    lo, hi = lf.gram_eigen_bounds(lf.gram_matrix(box, unit_lattice, 32))
    assert lo < 0.01
    assert hi <= 1.0 + 1e-8


def test_degenerate_samples_not_frame():
    cls = lf.classify_weighted_exponentials(np.zeros(64, dtype=complex), eps_zero=1e-8)
    assert cls.verdict is Verdict.BESSEL_NOT_FRAME
    assert cls.lower is None


def test_weighted_engine_matches_translate_engine(sinc_table, bspline1_table,
                                                  example_table, gauss_table):
    # a weight with |psi|^2 equal to the periodization classifies identically
    for table in (sinc_table, bspline1_table, example_table, gauss_table):
        base = lf.classify_table(table)
        psi = np.sqrt(table.values.ravel()).astype(complex)
        weighted = lf.classify_weighted_exponentials(
            psi, eps_zero=base.evidence["eps_zero"]
        )
        assert weighted.verdict is base.verdict
        if base.lower is not None:
            assert weighted.lower == pytest.approx(base.lower, rel=1e-9, abs=1e-12)


# integer 2x2 matrices with entries in [-3, 3] and determinant +-1
_UNIMODULAR = [
    np.array(e, dtype=float).reshape(2, 2)
    for e in itertools.product(range(-3, 4), repeat=4)
    if abs(e[0] * e[3] - e[1] * e[2]) == 1
]
_ROTATION = np.array([[math.cos(0.37), -math.sin(0.37)],
                      [math.sin(0.37), math.cos(0.37)]])
_BASIS_CHANGE_GENERATORS = (lf.BSpline(2, 2), lf.Gaussian(1.0, 2))


@pytest.fixture(scope="module")
def rotated_classifications():
    L = lf.new_lattice(_ROTATION)
    return [lf.classify_table(lf.compute_phi(g, L, 64)) for g in _BASIS_CHANGE_GENERATORS]


@settings(max_examples=20, deadline=None)
@given(u=st.sampled_from(_UNIMODULAR))
def test_unimodular_basis_change_keeps_verdict(u, rotated_classifications):
    # B and BU generate the same lattice; phi moves by gamma -> inv(U.T) gamma,
    # which permutes the grid, so the verdict and bounds stay put
    L = lf.new_lattice(_ROTATION @ u)
    for g, plain in zip(_BASIS_CHANGE_GENERATORS, rotated_classifications):
        moved = lf.classify_table(lf.compute_phi(g, L, 64))
        assert moved.verdict is plain.verdict
        assert moved.lower == pytest.approx(plain.lower, rel=1e-9)
        assert moved.upper == pytest.approx(plain.upper, rel=1e-9)
        assert moved.evidence["zero_fraction"] == plain.evidence["zero_fraction"]
