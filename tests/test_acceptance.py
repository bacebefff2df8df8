"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
failure report), so the suite doubles as a human-readable checklist.
"""

import time

import numpy as np
import pytest

import latticeframes as lf
from latticeframes.classify import Verdict

SEED = 20260810  # fixed seed for every randomized acceptance check


class Criterion:
    def __init__(self, num, desc):
        self.num = num
        self.desc = desc
        self.failures = []

    def check(self, name, ok):
        if not ok:
            self.failures.append(name)

    def done(self):
        status = "PASS" if not self.failures else f"FAIL ({', '.join(self.failures)})"
        print(f"[acceptance] criterion {self.num:02d} ({self.desc}): {status}")
        assert not self.failures, f"criterion {self.num}: {self.failures}"


def test_criterion_01_example_reproduction():
    crit = Criterion(1, "box example: Parseval frame, not Riesz")
    t0 = time.perf_counter()
    box = lf.FrequencyBox([-1 / 3], [1 / 3])
    lattice = lf.new_lattice([[1.0]])
    table = lf.compute_phi(box, lattice, 1024)
    cls = lf.classify_table(table)
    elapsed = time.perf_counter() - t0
    crit.check("verdict", cls.verdict is Verdict.PARSEVAL_FRAME_SEQUENCE)
    crit.check("lower=1", abs(cls.lower - 1.0) <= 1e-9)
    crit.check("upper=1", abs(cls.upper - 1.0) <= 1e-9)
    crit.check("zero fraction",
               abs(cls.evidence["zero_fraction"] - 1 / 3) <= 2 / 1024)
    crit.check("riesz fails", cls.evidence["zero_fraction"] > 0)
    crit.check("runtime<1s", elapsed < 1.0)
    crit.done()


def test_criterion_02_orthonormality(unit_lattice, sinc_table):
    crit = Criterion(2, "sinc translates orthonormal")
    crit.check("phi==1", np.max(np.abs(sinc_table.values - 1.0)) <= 1e-12)
    cls = lf.classify_table(sinc_table)
    crit.check("verdict", cls.verdict is Verdict.ORTHONORMAL_SEQUENCE)
    gram = lf.gram_matrix(lf.Sinc(1), unit_lattice, 8).dense()
    crit.check("gram identity", np.max(np.abs(gram - np.eye(17))) <= 1e-9)
    crit.done()


def test_criterion_03_riesz_bounds(unit_lattice, bspline1_table):
    crit = Criterion(3, "hat translates: Riesz bounds (1/3, 1)")
    cls = lf.classify_table(bspline1_table)
    crit.check("lower", abs(cls.lower - 1 / 3) <= 1e-6)
    crit.check("upper", abs(cls.upper - 1.0) <= 1e-6)

    los, his = [], []
    for m in (4, 8, 16, 32):
        lo, hi = lf.gram_eigen_bounds(lf.gram_matrix(lf.BSpline(1), unit_lattice, m))
        los.append(lo)
        his.append(hi)
    crit.check("eig inside", 1 / 3 < los[-1] and his[-1] < 1.0)
    crit.check("eig near ends", los[-1] - 1 / 3 < 0.01 and 1.0 - his[-1] < 0.01)
    crit.check("monotone min", all(a >= b for a, b in zip(los, los[1:])))
    crit.check("monotone max", all(a <= b for a, b in zip(his, his[1:])))
    crit.done()


def test_criterion_04_norm_identity(sinc_table, bspline1_table, gauss_table,
                                    example_table):
    crit = Criterion(4, "cell integral of phi equals squared norm")
    smooth = [
        (sinc_table, lf.Sinc(1)),
        (bspline1_table, lf.BSpline(1)),
        (gauss_table, lf.Gaussian(1.0)),
    ]
    for table, g in smooth:
        err = abs(float(np.mean(table.values)) - g.norm_squared())
        crit.check(g.label, err <= 1e-6)
    box_err = abs(float(np.mean(example_table.values)) - 2 / 3)
    crit.check("box within 2/N", box_err <= 2 / 1024)
    crit.done()


def test_criterion_05_coefficient_duality(unit_lattice, sinc_table,
                                          bspline1_table, gauss_table):
    crit = Criterion(5, "table Fourier coefficients match autocorrelation")
    cases = [
        (sinc_table, lf.Sinc(1)),
        (bspline1_table, lf.BSpline(1)),
        (gauss_table, lf.Gaussian(1.0)),
    ]
    for table, g in cases:
        ns, coeffs = lf.phi_fourier_coeffs(table, 2)
        for n, c in zip(ns[:, 0].tolist(), coeffs):
            auto = lf.autocorrelation(g, unit_lattice, [n])
            crit.check(f"{g.label} n={n}", abs(c - auto) <= 1e-6)
    _, coeffs = lf.phi_fourier_coeffs(bspline1_table, 2)  # n = -2..2
    for n, ref in ((0, 2 / 3), (1, 1 / 6), (2, 0.0)):
        crit.check(f"hat value n={n}", abs(coeffs[2 + n] - ref) <= 1e-6)
    crit.done()


def test_criterion_06_synthesis_identity(unit_lattice, sinc_table,
                                         bspline1_table, gauss_table,
                                         example_table):
    crit = Criterion(6, "synthesis norm: direct/spectral/quadratic agree")
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)

    def random_vector():
        size = int(rng.integers(1, 10))
        support = rng.choice(np.arange(-4, 5), size=size, replace=False)
        return lf.CoefficientVector({
            (int(k),): complex(rng.standard_normal(), rng.standard_normal())
            for k in support
        })

    smooth = [
        (lf.Sinc(1), sinc_table),
        (lf.BSpline(1), bspline1_table),
        (lf.Gaussian(1.0), gauss_table),
    ]
    for g, table in smooth:
        worst = 0.0
        for _ in range(100):
            c = random_vector()
            d, s, q = lf.synthesis_norm(g, unit_lattice, c, table)
            scale = max(1.0, d)
            worst = max(worst, abs(d - s) / scale, abs(d - q) / scale,
                        abs(s - q) / scale)
        crit.check(f"{g.label} (worst {worst:.2e})", worst <= 1e-6)

    # indicator-type table: the spectral route is a rectangle rule across
    # jumps, an O(1/N) floor, so the example preset runs at a widened
    # tolerance rather than 1e-6
    box = lf.FrequencyBox([-1 / 3], [1 / 3])
    worst = 0.0
    for _ in range(25):
        c = random_vector()
        d, s, q = lf.synthesis_norm(box, unit_lattice, c, example_table)
        scale = max(1.0, d)
        worst = max(worst, abs(d - s) / scale, abs(d - q) / scale)
    crit.check(f"box widened (worst {worst:.2e})", worst <= 5e-2)

    elapsed = time.perf_counter() - t0
    crit.check("runtime<10s", elapsed < 10.0)
    crit.done()


def test_criterion_07_perturbation(unit_lattice, sinc_table, translate_sum):
    crit = Criterion(7, "two-translate perturbation identity and frame check")
    for base in (lf.Sinc(1), lf.BSpline(1)):
        table = lf.compute_phi(base, unit_lattice, 1024)
        for n in (1, 2):
            pert = lf.perturbed_phi(table, [n])
            direct = lf.compute_phi(
                translate_sum(base, unit_lattice, [n]), unit_lattice, 1024
            )
            err = np.max(np.abs(pert.values - direct.values))
            crit.check(f"{base.label} n={n} (err {err:.1e})", err <= 1e-8)

    # frame-for-original-span decisions; the grid infimum for the box case
    # converges one-sidedly at rate ~10.9/(3N), so hitting 1e-6 needs N=2^22
    box = lf.FrequencyBox([-1 / 3], [1 / 3])
    fine = lf.compute_phi(box, unit_lattice, 2**22, target_tail=1e-12)
    chk = lf.perturbation_frame_check(fine, [1])
    crit.check("box stays frame", chk.frame_for_original)
    crit.check(f"box lower=1 ({chk.inf_on_original_support - 1:.1e})",
               abs(chk.inf_on_original_support - 1.0) <= 1e-6)

    chk_sinc = lf.perturbation_frame_check(sinc_table, [1])
    crit.check("sinc loses frame", not chk_sinc.frame_for_original)
    crit.done()


def test_criterion_08_spatial_periodization(unit_lattice):
    crit = Criterion(8, "spatial periodization: integral identity")
    _, (cell, full) = lf.periodize_l1(lf.Gaussian(1.0), unit_lattice, [[0.4]], 20)
    crit.check("gaussian pair", abs(cell - full) <= 1e-8)

    pts = [[x] for x in np.linspace(0, 0.999, 31)]
    psi, _ = lf.periodize_l1(lf.BSpline(1), unit_lattice, pts, 2)
    crit.check("hat partition of unity",
               np.max(np.abs(psi.real - 1.0)) <= 1e-12)
    crit.done()


def test_criterion_09_compact_support_never_overcomplete(unit_lattice):
    crit = Criterion(9, "compact support: Bessel and never overcomplete")
    for order in (1, 3):
        g = lf.BSpline(order)
        for n in (256, 512, 1024, 2048):
            table = lf.compute_phi(g, unit_lattice, n)
            cls = lf.classify_table(table)
            tag = f"order {order} N={n}"
            crit.check(f"{tag} bessel", cls.upper is not None
                       and np.isfinite(cls.upper) and table.tail <= 1e-9)
            is_frame = cls.verdict in (
                Verdict.FRAME_SEQUENCE, Verdict.PARSEVAL_FRAME_SEQUENCE,
                Verdict.RIESZ_SEQUENCE, Verdict.ORTHONORMAL_SEQUENCE,
            )
            is_riesz = cls.verdict in (
                Verdict.RIESZ_SEQUENCE, Verdict.ORTHONORMAL_SEQUENCE,
            )
            crit.check(f"{tag} riesz iff frame", is_frame == is_riesz)
            crit.check(f"{tag} no zero set",
                       cls.evidence["zero_fraction"] == 0.0)
    crit.done()


def test_criterion_10_two_dimensional_shear():
    crit = Criterion(10, "2-d shear lattice: sinc tensor orthonormal")
    t0 = time.perf_counter()
    lattice = lf.new_lattice([[1.0, 1.0], [0.0, 1.0]])
    table = lf.compute_phi(lf.Sinc(2), lattice, 256)
    cls = lf.classify_table(table)
    elapsed = time.perf_counter() - t0
    crit.check("det", lattice.det_abs == pytest.approx(1.0))
    crit.check("phi==1", np.max(np.abs(table.values - 1.0)) <= 1e-10)
    crit.check("verdict", cls.verdict is Verdict.ORTHONORMAL_SEQUENCE)
    crit.check("runtime<30s", elapsed < 30.0)
    crit.done()
