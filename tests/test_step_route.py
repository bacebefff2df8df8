"""The step route: box and sinc tables tabulated from the exact step function
|det B| phi = #{k : lo <= A (gamma + k) < hi}, A = inv(B.T), with the exact
essential range attached."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latticeframes as lf
from latticeframes import _integrate
from latticeframes.cli import build_generator, main, preset_config
from latticeframes.periodization import (_step_table, choose_truncation, compute_cross_phi,
                                         cross_phi_values)

_SHEAR = [[1.0, 1.0], [0.0, 1.0]]
_SKEW = [[0.9, 0.35], [-0.2, 1.3]]  # |det| 1.24
_THIRD = 1.0 / 3.0
_ROTATED = [[math.cos(0.37), -math.sin(0.37)], [math.sin(0.37), math.cos(0.37)]]

# (generator, basis, N): the box and sinc cases of the benchmark's phi_grid,
# the example preset, an asymmetric box on a lattice that is not unimodular,
# grids whose points lie on faces (N even puts gamma = 1/2 on the grid), and
# a face where u = A gamma rounds to the other side of lo - A k than the
# lattice sum's A (gamma + k) does of lo (a grid point of 2.5 Z); then
# lattices whose A has a negative or zero last-column entry, so that u falls
# or stays put along a grid row: the 0.37 rad rotation, [[1, -1], [0, 1]],
# the 3-d shear, and a lattice whose A has both last-column entries negative
# and whose grid points round past the upper ends of faces, where the margin
# of ``near`` decides
_EQUIVALENCE_CASES = [
    (lf.Sinc(2), _SHEAR, 256),
    (lf.Sinc(3), np.eye(3).tolist(), 16),
    (lf.FrequencyBox([-0.5, -0.5], [0.5, 0.5]), np.eye(2).tolist(), 128),
    (lf.FrequencyBox([-_THIRD] * 2, [_THIRD] * 2), np.eye(2).tolist(), 128),
    (lf.FrequencyBox([-_THIRD], [_THIRD]), [[1.0]], 1024),
    (lf.FrequencyBox([-0.2, -0.4], [0.45, 0.3]), _SKEW, 64),
    (lf.Sinc(1), [[1.0]], 64),
    (lf.Sinc(2), _SHEAR, 64),
    (lf.FrequencyBox([-0.3], [0.7]), [[2.5]], 16),
    (lf.Sinc(2), _ROTATED, 64),
    (lf.FrequencyBox([-0.2, -0.4], [0.45, 0.3]), _ROTATED, 64),
    (lf.Sinc(2), [[1.0, -1.0], [0.0, 1.0]], 64),
    (lf.Sinc(3), [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]], 16),
    (lf.FrequencyBox([-0.5, 0.0], [0.6, 0.4]), [[0.75, -0.75], [-0.125, -1.125]], 32),
    # a box several cells wide on a fine skew lattice, u rising on one axis and
    # falling on the other: each row crosses 16 face clusters, and on a 1/8
    # grid crossings tie at one grid index
    (lf.FrequencyBox([-1.25, -0.75], [1.5, 1.0]), [[0.375, 0.125], [0.125, -0.25]], 64),
    # diagonal lattices, whose tables are outer products of per-axis counts:
    # non-unit, negative and mixed entries, and a box a dozen cells wide on
    # each axis of Z^3, whose d-dimensional cells times kept k pass one block
    (lf.FrequencyBox([-0.5, -_THIRD], [0.5, _THIRD]), [[0.7, 0.0], [0.0, 1.3]], 64),
    (lf.Sinc(2), [[-0.8, 0.0], [0.0, 1.25]], 64),
    (lf.Sinc(3), np.diag([0.5, 1.0, 2.0]).tolist(), 16),
    (lf.FrequencyBox([-1.25, -0.75], [1.5, 1.0]), [[0.375, 0.0], [0.0, -0.25]], 64),
    (lf.FrequencyBox([-5.6] * 3, [5.7] * 3), np.eye(3).tolist(), 8),
    # 1-d boxes many cells wide, most k inside at every grid point: on a
    # negative spacing, and on a 1/4 spacing whose faces fall on grid points
    (lf.FrequencyBox([-50.3], [49.9]), [[-0.7]], 256),
    (lf.FrequencyBox([-4.25], [3.5]), [[0.25]], 64),
]


@pytest.mark.parametrize("g,basis,n", _EQUIVALENCE_CASES, ids=lambda v: getattr(v, "label", None))
def test_step_table_equals_lattice_sum_bit_for_bit(g, basis, n):
    L = lf.new_lattice(basis)
    table = lf.compute_phi(g, L, n)
    assert (table.route, table.tail) == ("step", 0.0)
    # the radius the direct route records: the smallest with zero box tail
    assert table.trunc_radius == choose_truncation(g, L, 1e-300)[0]
    direct = cross_phi_values(g, g, L, n, table.trunc_radius)
    assert np.array_equal(table.values, direct)
    assert np.array_equal(compute_cross_phi(g, g, L, n).values, direct)


# entries on a 1/8 grid put many grid points on faces; others put none there
_entry = st.one_of(st.integers(-12, 12).map(lambda i: i / 8),
                   st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(basis=st.tuples(_entry, _entry, _entry, _entry), lo=st.tuples(_entry, _entry),
       width=st.tuples(_entry, _entry), n=st.sampled_from([8, 16, 32]))
def test_step_table_equals_lattice_sum_on_random_lattices(basis, lo, width, n):
    b = np.array(basis).reshape(2, 2)
    assume(abs(np.linalg.det(b)) > 0.25 and np.linalg.cond(b) < 20.0)
    lo = np.array(lo)
    g, L = lf.FrequencyBox(lo, lo + 0.1 + np.abs(width)), lf.new_lattice(b)
    table = lf.compute_phi(g, L, n)
    assert table.route == "step"
    assert np.array_equal(table.values, cross_phi_values(g, g, L, n, table.trunc_radius))


# corners within 1/2 of 0: wider boxes on these lattices keep more k than one
# block of cells holds, and their tables take the direct route
_near = st.one_of(st.integers(-4, 4).map(lambda i: i / 8),
                  st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False))


@settings(max_examples=20, deadline=None)
@given(basis=st.lists(_entry, min_size=9, max_size=9), lo=st.tuples(_near, _near, _near),
       width=st.tuples(_near, _near, _near), n=st.sampled_from([8, 16]))
def test_step_table_equals_lattice_sum_on_random_3d_lattices(basis, lo, width, n):
    b = np.array(basis).reshape(3, 3)
    assume(abs(np.linalg.det(b)) > 0.25 and np.linalg.cond(b) < 20.0)
    lo = np.array(lo)
    g, L = lf.FrequencyBox(lo, lo + 0.1 + np.abs(width)), lf.new_lattice(b)
    step = _step_table(g, L, n)
    assume(step is not None)
    values, radius, _ = step
    assert np.array_equal(values, cross_phi_values(g, g, L, n, radius))


def test_step_route_evaluates_fourier_only_on_faces():
    # Sinc(2) on the shear: u = (gamma_1, gamma_2 - gamma_1) meets a face
    # where either coordinate is 1/2 mod 1, at 16 + 16 - 1 of the 16^2 points;
    # those take only the 6 kept k (k_1 in {-1, 0}, k_2 - k_1 in {-1, 0, 1}),
    # not the 9 of radius 1, and no pilot pass runs
    L = lf.new_lattice(_SHEAR)
    g, points = lf.Sinc(2), []
    fourier = g.fourier
    g.fourier = lambda xi: points.append(len(xi)) or fourier(xi)
    assert lf.compute_phi(g, L, 16).route == "step"
    assert sum(points) == 31 * 6


def test_step_route_raises_past_the_radius_cap():
    # a box reaching 10001 on Z needs radius 10001 > K_CAP[1]: the radius
    # search refuses it before any transform point, pilot pass included
    g, points = lf.FrequencyBox([-10001.0], [10001.0]), []
    fourier = g.fourier
    g.fourier = lambda xi: points.append(len(xi)) or fourier(xi)
    with pytest.raises(lf.errors.TailNotAchievable):
        lf.compute_phi(g, lf.new_lattice([[1.0]]), 4096)
    assert points == []


def test_step_route_falls_back_past_one_block(monkeypatch):
    # Sinc(1) on Z keeps k = -1, 0 and four cells: 8 entries
    monkeypatch.setattr(_integrate, "BLOCK_BUDGET", 7)
    L = lf.new_lattice([[1.0]])
    table = lf.compute_phi(lf.Sinc(1), L, 64)
    assert (table.route, table.essential_range) == ("direct", None)
    monkeypatch.setattr(_integrate, "BLOCK_BUDGET", 8)
    assert lf.compute_phi(lf.Sinc(1), L, 64).route == "step"


def test_sliver_1d_is_riesz_not_orthonormal():
    # phi = 2 on [a, a + 1e-4) mod 1, which falls between grid points
    a = 0.3 + 0.3 / 4096
    table = lf.compute_phi(lf.FrequencyBox([a - 1.0], [a + 1e-4]), lf.new_lattice([[1.0]]), 4096)
    assert np.all(table.values == 1.0)
    assert table.essential_range == (1.0, 2.0)
    cls = lf.classify_table(table)
    assert (cls.verdict, cls.lower, cls.upper) == (lf.Verdict.RIESZ_SEQUENCE, 1.0, 2.0)
    assert cls.evidence["certified"] is True
    assert cls.evidence["zero_fraction"] == 0.0


def test_spectral_bounds_of_the_1d_sliver_are_certified():
    a = 0.3 + 0.3 / 4096
    table = lf.compute_phi(lf.FrequencyBox([a - 1.0], [a + 1e-4]), lf.new_lattice([[1.0]]), 4096)
    bounds = lf.spectral_bounds(table)
    assert bounds.certified
    assert (bounds.sup_all, bounds.inf_all, bounds.inf_offzero) == (2.0, 1.0, 1.0)


def test_sliver_2d_on_the_shear_is_riesz_not_orthonormal():
    s = 0.3 / 256
    box = lf.FrequencyBox([-0.5 + s, -0.5], [0.501 + s, 0.5])
    table = lf.compute_phi(box, lf.new_lattice(_SHEAR), 256)
    assert np.all(table.values == 1.0)
    assert table.essential_range == (1.0, 2.0)
    cls = lf.classify_table(table)
    assert (cls.verdict, cls.lower, cls.upper) == (lf.Verdict.RIESZ_SEQUENCE, 1.0, 2.0)


@pytest.mark.parametrize("name,expected", [("example", (0.0, 1.0)), ("sinc", (1.0,)),
                                           ("sinc2d", (1.0,))])
def test_preset_essential_ranges(name, expected):
    cfg = preset_config(name)
    table = lf.compute_phi(build_generator(cfg.generator), lf.new_lattice(cfg.lattice),
                           cfg.grid_res)
    assert table.essential_range == expected


def test_zero_set_comes_from_the_range_and_its_fraction_from_the_grid():
    # the 0.65 x 0.7 box on the skew lattice: phi is 0 or 1/1.24
    table = lf.compute_phi(lf.FrequencyBox([-0.2, -0.4], [0.45, 0.3]), lf.new_lattice(_SKEW), 64)
    cls = lf.classify_table(table)
    assert table.essential_range == (0.0, 1.0 / 1.24)
    assert cls.verdict is lf.Verdict.FRAME_SEQUENCE
    assert cls.lower == cls.upper == 1.0 / 1.24
    assert cls.evidence["zero_fraction"] == np.count_nonzero(table.values == 0.0) / 64**2


def test_essential_range_of_a_box_on_a_diagonal_lattice():
    # gamma_i meets the box on intervals of length 1 x 0.7 and 2/3 x 1.3, both
    # under 1: each axis counts 0 or 1, and phi takes 0 and 1 / |det B|, where
    # |det B| is 0.91 to rounding
    box = lf.FrequencyBox([-0.5, -_THIRD], [0.5, _THIRD])
    L = lf.new_lattice([[0.7, 0.0], [0.0, 1.3]])
    assert L.det_abs == pytest.approx(0.91, rel=1e-15)
    assert lf.compute_phi(box, L, 64).essential_range == (0.0, 1.0 / L.det_abs)


def test_other_routes_carry_no_range(unit_lattice):
    for g in (lf.BSpline(1), lf.Gaussian(1.0)):
        table = lf.compute_phi(g, unit_lattice, 64)
        assert table.essential_range is None
        assert "certified" not in lf.classify_table(table).evidence


def test_perturbed_table_drops_the_range(example_table):
    pert = lf.perturbed_phi(example_table, [1])
    assert example_table.essential_range == (0.0, 1.0)
    assert pert.essential_range is None
    cls = lf.classify_table(pert)
    assert "certified" not in cls.evidence
    # the 4 cos^2 factor makes phi continuous off the box: grid bounds again
    assert cls.verdict is lf.Verdict.FRAME_SEQUENCE
    assert cls.upper == 4.0 and cls.lower > 1.0


_PERTURB_EXAMPLE = """{
  "shift_index": [
    1
  ],
  "verdict": "FrameSequence",
  "lower": 1.00354466605,
  "upper": 4.0,
  "zero_fraction": 0.3330078125,
  "frame_for_original": true,
  "inf_on_original_support": 1.00354466605,
  "config": {
    "generator": {
      "kind": "frequency_box",
      "lower": [
        -0.333333333333
      ],
      "upper": [
        0.333333333333
      ]
    },
    "lattice": [
      [
        1.0
      ]
    ],
    "grid_res": 1024,
    "target_tail": null,
    "eps_zero": null,
    "class_tol": 1e-06,
    "gram_half_width": 8
  }
}
"""


def test_perturb_example_report_is_unchanged(capsys):
    # the report of the grid route, before box tables carried a range
    assert main(["perturb", "--preset", "example", "--n", "1"]) == 0
    assert capsys.readouterr().out == _PERTURB_EXAMPLE


# integer 2x2 matrices with entries in [-2, 2] and determinant +-1
_UNIMODULAR = [
    np.array(e, dtype=float).reshape(2, 2)
    for e in itertools.product(range(-2, 3), repeat=4)
    if abs(e[0] * e[3] - e[1] * e[2]) == 1
]
_corner = st.integers(-8, 8).map(lambda i: i / 8)


@settings(max_examples=40, deadline=None)
@given(u=st.sampled_from(_UNIMODULAR), basis=st.sampled_from([np.eye(2), _SHEAR, _SKEW]),
       lo=st.tuples(_corner, _corner), width=st.tuples(_corner, _corner))
def test_essential_range_is_invariant_under_unimodular_change(u, basis, lo, width):
    # B and BU generate the same lattice, so phi is the same function on the
    # torus in other coordinates and its essential range stays put
    lo = np.array(lo)
    box = lf.FrequencyBox(lo, lo + 0.25 + np.abs(width))
    plain = lf.compute_phi(box, lf.new_lattice(basis), 8).essential_range
    moved = lf.compute_phi(box, lf.new_lattice(np.asarray(basis) @ u), 8).essential_range
    assert len(moved) == len(plain)
    np.testing.assert_allclose(moved, plain, rtol=1e-12)
