"""Shared fixtures: lattices, preset tables, and frequency-domain oracle
wrappers used to cross-check the perturbation and translation identities."""

import dataclasses
import os

# one BLAS thread, set before numpy loads: OpenBLAS's own threads stall when
# another process shares the cores, and a test then takes many times as long
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

import latticeframes as lf


@pytest.fixture(scope="session")
def unit_lattice():
    return lf.new_lattice([[1.0]])


@pytest.fixture(scope="session")
def sinc_table(unit_lattice):
    return lf.compute_phi(lf.Sinc(1), unit_lattice, 4096)


@pytest.fixture(scope="session")
def bspline1_table(unit_lattice):
    return lf.compute_phi(lf.BSpline(1), unit_lattice, 4096)


@pytest.fixture(scope="session")
def gauss_table(unit_lattice):
    return lf.compute_phi(lf.Gaussian(1.0), unit_lattice, 4096)


@pytest.fixture(scope="session")
def example_table(unit_lattice):
    box = lf.FrequencyBox([-1.0 / 3.0], [1.0 / 3.0])
    return lf.compute_phi(box, unit_lattice, 1024)


class TranslateSum(lf.Generator):
    """f plus its lattice translate, built directly in the frequency domain.

    Oracle path for the perturbation identity: the transform picks up the
    factor 1 + exp(-2 pi i xi . (B n)) and the decay envelope scales by 4.
    """

    def __init__(self, base, lattice, n):
        self.base = base
        self.lattice = lattice
        self.n = np.atleast_1d(np.asarray(n, dtype=int))
        self.dim = base.dim
        self.shift = lattice.basis @ self.n.astype(float)
        self.label = f"{base.label}+translate"

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        factor = 1.0 + np.exp(-2j * np.pi * (xi @ self.shift))
        return factor * self.base.fourier(xi)

    def spatial(self, x):
        x = np.asarray(x, dtype=float)
        return self.base.spatial(x) + self.base.spatial(x - self.shift)

    def norm_squared(self):
        cross = lf.autocorrelation(self.base, self.lattice, self.n)
        return 2.0 * self.base.norm_squared() + 2.0 * float(np.real(cross))

    def decay_bound(self):
        db = self.base.decay_bound()
        if isinstance(db, lf.CompactFrequencySupport):
            return dataclasses.replace(db, peak=4.0 * db.peak)
        if isinstance(db, lf.PolynomialDecay):
            return dataclasses.replace(db, constant=4.0 * db.constant, peak=4.0 * db.peak)
        return dataclasses.replace(db, constant=4.0 * db.constant)


class Translated(lf.Generator):
    """Pure translate of a base generator by a fixed spatial shift."""

    def __init__(self, base, shift):
        self.base = base
        self.dim = base.dim
        self.shift = np.atleast_1d(np.asarray(shift, dtype=float))
        self.label = f"{base.label}@shifted"

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-2j * np.pi * (xi @ self.shift)) * self.base.fourier(xi)

    def spatial(self, x):
        return self.base.spatial(np.asarray(x, dtype=float) - self.shift)

    def norm_squared(self):
        return self.base.norm_squared()

    def decay_bound(self):
        return self.base.decay_bound()

    def fourier_tail_radius(self, tol):
        return self.base.fourier_tail_radius(tol)


class MeshOnly(lf.Generator):
    """A generator without axis factors: its frequency integrals take the
    d-dimensional mesh, the reference for the per-axis rules."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.label = f"{base.label}@mesh"

    def fourier(self, xi):
        return self.base.fourier(xi)

    def spatial(self, x):
        return self.base.spatial(x)

    def norm_squared(self):
        return self.base.norm_squared()

    def decay_bound(self):
        return self.base.decay_bound()

    def indicator_box(self):
        return self.base.indicator_box()

    def spatial_box(self):
        return self.base.spatial_box()


@pytest.fixture(scope="session")
def mesh_only():
    return MeshOnly


@pytest.fixture
def translate_sum():
    return TranslateSum


@pytest.fixture
def translated():
    return Translated
