import numpy as np
import pytest

import latticeframes as lf
from latticeframes.errors import NonFiniteInput, SingularMatrix, UnsupportedDimension


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


def test_wrap_basic():
    assert lf.wrap_to_unit_cell([0.25]) == pytest.approx([0.25])
    assert lf.wrap_to_unit_cell([-0.25]) == pytest.approx([0.75])
    assert lf.wrap_to_unit_cell([3.5, -1.2]) == pytest.approx([0.5, 0.8], abs=1e-12)


def test_wrap_nonfinite():
    with pytest.raises(NonFiniteInput):
        lf.wrap_to_unit_cell([np.inf])


def test_wrap_periodicity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = rng.uniform(-5, 5, size=2)
        k = rng.integers(-4, 5, size=2)
        assert lf.wrap_to_unit_cell(g + k) == pytest.approx(
            lf.wrap_to_unit_cell(g), abs=1e-12
        )
    assert np.all(lf.wrap_to_unit_cell(rng.uniform(-9, 9, size=3)) < 1.0)


def test_points_in_box_counts_and_order():
    L = lf.new_lattice([[1.0]])
    pts = lf.lattice_points_in_box(L, 0)
    assert len(pts) == 1 and pts[0].index == pytest.approx([0])

    pts = lf.lattice_points_in_box(L, 2)
    assert [int(p.index[0]) for p in pts] == [-2, -1, 0, 1, 2]

    L2 = lf.new_lattice([[2.0, 0.0], [0.0, 1.0]])
    pts2 = lf.lattice_points_in_box(L2, 1)
    assert len(pts2) == 9
    idx = [tuple(p.index) for p in pts2]
    assert idx == sorted(idx)  # lexicographic
    assert pts2[0].coords == pytest.approx([-2.0, -1.0])


def test_points_frequency_side():
    L = lf.new_lattice(np.diag([2.0, 3.0]))
    pts = lf.lattice_points_in_box(L, 1, side="frequency")
    for p in pts:
        assert p.coords == pytest.approx(L.dual_basis @ p.index)


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


def test_wrap_tiny_negative_rounds_into_cell():
    # float mod can round -1e-18 up to exactly 1.0; the wrap must stay in [0,1)
    out = lf.wrap_to_unit_cell([-1e-18])
    assert out[0] == 0.0


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
