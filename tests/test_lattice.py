import numpy as np
import pytest

import latticeframes as lf
from latticeframes.errors import NonFiniteInput, SingularMatrix, UnsupportedDimension
from latticeframes.lattice import CONDITION_LIMIT


def test_identity_lattice():
    L = lf.new_lattice([[1.0]])
    assert L.dim == 1
    assert L.det_abs == pytest.approx(1.0)
    assert L.dual_basis == pytest.approx(np.array([[1.0]]))


def test_diagonal_lattice():
    L = lf.new_lattice(np.diag([2.0, 3.0]))
    assert L.det_abs == pytest.approx(6.0)
    assert L.dual_basis == pytest.approx(np.diag([0.5, 1.0 / 3.0]))


def test_shear_lattice_dual():
    # hand-computed inverse transpose, checked by multiplying out
    L = lf.new_lattice([[1.0, 1.0], [0.0, 1.0]])
    assert L.det_abs == pytest.approx(1.0)
    assert L.dual_basis == pytest.approx(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert L.dual_basis @ L.basis.T == pytest.approx(np.eye(2), abs=1e-12)


def test_singular_rejected():
    with pytest.raises(SingularMatrix):
        lf.new_lattice([[1.0, 1.0], [1.0, 1.0]])


def test_ill_conditioned_rejected():
    with pytest.raises(SingularMatrix):
        lf.new_lattice([[1.0, 0.0], [0.0, 1e-9]])


def test_dimension_cap():
    with pytest.raises(UnsupportedDimension):
        lf.new_lattice(np.eye(4))


def test_nonfinite_matrix():
    with pytest.raises(NonFiniteInput):
        lf.new_lattice([[np.nan]])


def test_duality_pairing():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        L = lf.new_lattice(np.eye(d) + 0.3 * rng.uniform(-1, 1, size=(d, d)))
        for _ in range(20):
            j = rng.integers(-5, 6, size=d)
            k = rng.integers(-5, 6, size=d)
            lhs = (L.basis @ j) @ (L.dual_basis @ k)
            assert lhs == pytest.approx(float(j @ k), abs=1e-10)


def test_dual_volume():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        L = lf.new_lattice(np.eye(d) + 0.25 * rng.uniform(-1, 1, size=(d, d)))
        assert abs(np.linalg.det(L.dual_basis)) == pytest.approx(
            1.0 / L.det_abs, rel=1e-12
        )


def test_basis_norm_is_the_spectral_norm_of_the_basis():
    # the Gaussian autocorrelation tail reads it on every probe of its radius
    # search, from the dual lattice: computed once, and the same number
    rotated = [[np.cos(0.9), -np.sin(0.9)], [np.sin(0.9), np.cos(0.9)]]
    for basis in ([[0.7]], rotated, [[1.0, 0.3, 0.0], [0.2, 0.9, 0.1], [0.0, 0.4, 1.3]]):
        L = lf.new_lattice(basis)
        for lat in (L, L.dual()):
            assert lat.basis_norm == float(np.linalg.norm(lat.basis.T, 2))
            assert lat.basis_norm is lat.basis_norm


def test_new_lattice_and_basis_norm_take_one_svd(monkeypatch):
    # the condition check and basis_norm read the same singular values;
    # np.linalg.cond and np.linalg.norm call the module's own svd
    linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    calls = []

    def spy(*args, svd=np.linalg.svd, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(linalg, "svd", spy)
    L = lf.new_lattice([[1.0, 0.3, 0.0], [0.2, 0.9, 0.1], [0.0, 0.4, 1.3]])
    assert L.basis_norm > 0.0
    assert len(calls) == 1


@pytest.mark.parametrize("past", [True, False])
def test_condition_limit_is_the_ratio_of_singular_values(past):
    # a rotated diagonal basis whose singular values are 1 and 1 / cond
    cond = CONDITION_LIMIT * (1.01 if past else 0.99)
    c, s = np.cos(0.4), np.sin(0.4)
    basis = np.array([[c, -s], [s, c]]) @ np.diag([1.0, 1.0 / cond])
    if past:
        with pytest.raises(SingularMatrix, match="condition number"):
            lf.new_lattice(basis)
    else:
        assert lf.new_lattice(basis).basis_norm == pytest.approx(1.0, rel=1e-12)


# every entry point that pairs a generator with a lattice checks that their
# dimensions agree; ``bad`` is 2-d, ``good`` and the lattice are 1-d
_DIM_CALLS = {
    "compute_phi": lambda bad, good, L, t: lf.compute_phi(bad, L, 64),
    "gram_matrix": lambda bad, good, L, t: lf.gram_matrix(bad, L, 2),
    "autocorrelation": lambda bad, good, L, t: lf.autocorrelation(bad, L, [1]),
    "synthesis_norm": lambda bad, good, L, t: lf.synthesis_norm(
        bad, L, lf.CoefficientVector({(0,): 1.0}), t),
    "analysis_f": lambda bad, good, L, t: lf.analysis_coefficients(bad, L, good, 2),
    "analysis_h": lambda bad, good, L, t: lf.analysis_coefficients(good, L, bad, 2),
    "project_g": lambda bad, good, L, t: lf.project_onto_span(bad, L, good, t),
    "project_psi": lambda bad, good, L, t: lf.project_onto_span(good, L, bad, t),
}


@pytest.mark.parametrize("name", sorted(_DIM_CALLS))
def test_generator_lattice_dimension_mismatch(name, unit_lattice, sinc_table):
    with pytest.raises(ValueError, match="dimension 2 but the lattice has dimension 1"):
        _DIM_CALLS[name](lf.Sinc(2), lf.Sinc(1), unit_lattice, sinc_table)
