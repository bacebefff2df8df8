"""Lattice periodizations: the grid table of the periodized power spectrum,
its Fourier coefficients, lattice autocorrelations, and the two-translate
perturbation identity.

For a generator f and lattice basis B, the central object is

    phi(gamma) = (1/|det B|) * sum_k |fhat(inv(B.T) (gamma + k))|^2,

a Z^d-periodic function of gamma sampled on the uniform grid j/N over
[0, 1)^d.  By Poisson summation it is also the Fourier series

    phi(gamma) = sum_n c_n exp(2 pi i n . gamma),   c_n = <f, f(. + B n)>,

and the mixed periodization of psihat * conj(fhat), which the span
projection reads, has a_n = <psi, f(. + B n)> in place of c_n.
``compute_cross_phi`` builds both (``compute_phi`` is its self pair) by one
of three routes:

* step -- for the self pair of a generator whose |fhat|^2 is the indicator
  of a half-open box [lo, hi) (boxes and sincs), |det B| phi is the count
  #{k : lo <= A (gamma + k) < hi}, A = inv(B.T), which is constant on the
  cells of a rectilinear grid in u = A gamma.  On a diagonal basis (every
  1-d one) it is a product over the axes, and the table the outer product of
  one 1-d count per distinct axis.  Otherwise the count is taken once per
  cell; a grid point's cell counts the face crossings of its grid row, and
  points on a face take the lattice sum over the k that can reach them.
  Either way the table equals the full sum bit for bit, with tail 0, and the
  distinct counts are the essential range of phi;
* dual -- the series summed by one inverse FFT (real for the self pair,
  whose coefficients are Hermitian) over the exact box of nonzero
  coefficients when both sides declare a spatial box (B-splines, samples
  against a generator that is not sampled), with tail 0; or, for the self
  pair, over the smallest cube whose l1 tail, certified by the
  autocorrelation envelope (Gaussians), meets a target;
* direct -- otherwise, or when the cells or the coefficients would not fit
  one block, the lattice sum above truncated where its certified tail meets
  a target.

Either way the dropped tail bounds the error at every gamma.  Every table
records its route, the radius it used and that tail bound, so downstream
classification can widen its tolerances accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _integrate
from .errors import (AliasRisk, EpsilonTooSmall, NoDecayInfo, NonFiniteInput, TailNotAchievable,
                     TooLarge)
from .generators import Generator, tail_bound
from .lattice import LatticeSpec, check_dims, check_integer, check_positive, integer_box, is_integer

# truncation radius caps per dimension
K_CAP = {1: 10_000, 2: 1_000, 3: 100}

_MIN_GRID = 8

# default zero threshold over the grid max: separates true zeros of
# indicator-type tables from truncation noise (tails are ~1e-10 of the max)
EPS_ZERO_FRAC = 1e-8

# step tables: box faces closer than this fraction of an axis's scale merge
# (the cell between them counts as null), and grid points this close to a
# face, as a fraction of the scale, take the lattice sum
_MERGE_FRAC = 1e-12
_FACE_FRAC = 1e-9


@dataclass(frozen=True, eq=False)
class PeriodizationTable:
    """Samples of the periodized power spectrum on the grid j/N in [0,1)^d.

    ``values`` is an (N,)*d array within ``tail`` of the true ones: real for
    a self pair, complex for a cross pair (tagged "<psi> against <g>").
    ``route`` is "step", "direct" or "dual".  On the step and direct routes
    ``trunc_radius`` is the sup-norm radius of the summed
    lattice terms and ``tail`` the certified bound on the rest (0 on the step
    route); on the dual route it is the radius of the Fourier coefficient box
    and ``tail`` the certified l1 norm of the coefficients beyond it.
    ``essential_range``, on step tables only, holds the distinct values phi
    takes on sets of positive measure, ascending.
    """

    lattice: LatticeSpec
    grid_res: int
    values: np.ndarray
    trunc_radius: int
    tail: float
    generator_tag: str
    route: str = "direct"
    essential_range: tuple[float, ...] | None = None

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def zero_threshold(self, eps_zero: float | None = None) -> float:
        """``eps_zero``, or by default a fraction of the grid maximum; it must be
        at least 4 * tail so that a dropped tail cannot flip a zero decision;
        a complex table (a cross pair) raises ValueError."""
        if np.iscomplexobj(self.values):
            raise ValueError(f"{self.generator_tag}: a complex table has no zero threshold")
        if eps_zero is None:
            return max(EPS_ZERO_FRAC * (float(self.values.max()) + self.tail),
                       4.0 * self.tail, 1e-300)
        check_positive("eps_zero", eps_zero)
        if eps_zero < 4.0 * self.tail:
            raise EpsilonTooSmall(
                f"eps_zero {eps_zero:.3e} below 4 * tail {4.0 * self.tail:.3e}")
        return eps_zero


def grid_gamma(dim: int, n: int) -> np.ndarray:
    """Flat (n^dim, dim) array of grid points j/n in lexicographic j order."""
    return _integrate.mesh([np.arange(n) / n] * dim)


def _validate_grid(n: int):
    if n < _MIN_GRID or (n & (n - 1)) != 0:
        raise ValueError(f"grid resolution must be a power of two >= {_MIN_GRID}, got {n}")


def _sum_box(dim: int, radius: int, points: int) -> np.ndarray:
    """``integer_box(dim, radius)`` for a lattice sum at ``points`` points, or
    TooLarge first when its terms x points pass ``POINT_CAP``."""
    terms = (2 * radius + 1) ** dim
    if terms * points > _integrate.POINT_CAP:
        raise TooLarge(f"lattice sum of {terms} terms at {points} points: {terms * points:.3g} "
                       f"terms x points past the cap {_integrate.POINT_CAP}")
    return integer_box(dim, radius)


def _lattice_sum(eval_fn, pts: np.ndarray, ks: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """sum_k eval_fn(matrix @ (pts + k)) over the (K, d) integer vectors ks,
    in their order."""
    m = pts.shape[0]
    acc = np.zeros(m)  # takes the summand's dtype: real |fhat|^2 stays real
    for sl in _integrate.row_blocks(ks.shape[0], m):
        args = (pts[None, :, :] + ks[sl, None, :]).reshape(-1, pts.shape[1]) @ matrix.T
        acc = acc + np.add.reduce(eval_fn(args).reshape(-1, m), axis=0)
    return acc


def _smallest_radius(tail, cap: int, target_tail: float, label: str):
    """Smallest radius in 1..cap whose ``tail(radius)`` is at most target_tail.

    ``tail`` is non-increasing in the radius, so once the cap is known to
    reach the target, doubling from 1 and bisecting the last step finds the
    smallest radius in about 2 log2(radius) calls.
    """
    tails = {cap: tail(cap)}
    if not tails[cap] <= target_tail:  # a NaN tail or target reaches nothing
        raise TailNotAchievable(
            f"{label}: tail {tails[cap]:.3e} at radius cap {cap} exceeds target "
            f"{target_tail:.3e}"
        )

    def fits(k):
        if k not in tails:
            tails[k] = tail(k)
        return tails[k] <= target_tail

    lo, hi = 0, 1
    while not fits(hi):
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi, tails[hi]


def choose_truncation(g: Generator, lattice: LatticeSpec, target_tail: float):
    """Smallest lattice-sum radius whose certified tail is at most target_tail."""
    return _smallest_radius(lambda k: tail_bound(g, lattice, k), K_CAP[lattice.dim],
                            target_tail, g.label)


def _index_box(lo, hi, matrix: np.ndarray):
    """Integer vectors, in lex order, of the largest box inside the image of
    the box [lo, hi] under x -> x @ matrix (ceil/floor of its corners' span),
    or None when it holds more than one block of vectors."""
    corners = _integrate.mesh(list(zip(lo, hi))) @ matrix
    first, last = np.ceil(corners.min(axis=0)), np.floor(corners.max(axis=0))
    if np.prod(last - first + 1) > _integrate.BLOCK_BUDGET:
        return None
    return _integrate.mesh([np.arange(int(a), int(b) + 1) for a, b in zip(first, last)])


def _coefficient_set(g: Generator, psi: Generator, lattice: LatticeSpec,
                     target_tail: float | None):
    """Integer vectors n, in lex order, of the coefficients
    a_n = <psi, g(. + B n)> the dual route sums, with the certified l1 tail
    of the rest, or None for the direct route:

    * when both sides declare a spatial box and are not both sampled (two
      combs have no finite inner product), the n with B n in box_g - box_psi,
      exact with tail 0 (symmetric for the self pair): an n that rounding
      moves off its face has a_n = 0, the partner vanishing on its box's
      boundary;
    * else, for the self pair, the smallest cube |n|_inf <= R <= K_CAP whose
      tail is at most target_tail (default 1e-10 * ||f||^2) by the
      autocorrelation envelope: its lattice sum on the dual lattice past
      R + 1, times |det B|, bounds sum_{|n|_inf > R} |c(B n)|;
    * None otherwise, or when the set would exceed one block of terms.
    """
    boxes = g.spatial_box(), psi.spatial_box()
    if None not in boxes and not (g.comb and psi.comb):
        lo, hi = boxes[0][0] - boxes[1][1], boxes[0][1] - boxes[1][0]
        ns, tail = _index_box(lo, hi, lattice.dual_basis), 0.0  # B^-1 c per row
    else:
        decay = g.autocorrelation_decay() if psi is g else None
        if decay is None:
            return None
        if target_tail is None:
            target_tail = 1e-10 * g.norm_squared()
        dual = lattice.dual()
        # lattice_tail charges shell m at distance m - 1, as a table tail must for
        # every gamma; at gamma = 0 shell m has |B n|_2 >= m / |B^-1|_2 and shell
        # counts grow with m, so k + 1 bounds the sum past k.  That is exact in
        # 1-d: 1 + 1e-13 covers ulps of its exponents a m^2 ~ ln(||f||^2 / target)
        try:
            radius, tail = _smallest_radius(lambda k: decay.lattice_tail(dual, k + 1) * (
                1 + 1e-13) / lattice.det_abs, K_CAP[lattice.dim], target_tail, g.label)
        except TailNotAchievable:
            return None
        cube = np.full(lattice.dim, float(radius))
        ns = _index_box(-cube, cube, np.eye(lattice.dim))
    return None if ns is None else (ns, tail)


def lattice_coefficients(g: Generator, lattice: LatticeSpec, box: np.ndarray) -> np.ndarray:
    """c_n = <f, f(. + B n)> over the (m, d) integer vectors n of a box
    symmetric about 0, in its lex order.

    Entry i of such a box mirrors entry -1 - i: one autocorrelation call over
    the first half gives the rest as c_(-n) = conj(c_n).  The centre c_0 =
    ||f||^2 keeps only its real part, so the set is exactly Hermitian: a
    sampled generator's overlap at shift 0 can carry a rounding-sized
    imaginary part."""
    vals = g.autocorrelation(box[: (len(box) + 1) // 2] @ lattice.basis.T).astype(complex)
    vals[-1] = vals[-1].real
    return np.concatenate([vals, vals[:-1][::-1].conj()])


def _series_values(ns, coeffs, grid_res: int, hermitian: bool = False) -> np.ndarray:
    """Grid samples of sum_n a_n exp(2 pi i n . gamma) over the (m, d)
    integer vectors n with coefficients a_n.

    Exponents alias mod N exactly on the grid, so the coefficients are
    scattered into an N^d array and summed by one inverse FFT; a
    ``hermitian`` set (a_(-n) = conj(a_n)) scatters its half spectrum,
    n_d mod N <= N/2, for one real inverse FFT (N even gives N samples).
    """
    shape = (grid_res,) * (ns.shape[1] - 1) + (grid_res // 2 + 1 if hermitian else grid_res,)
    fits = ns[:, -1] % grid_res < shape[-1]
    grid = np.zeros(shape, dtype=complex)
    np.add.at(grid, tuple((ns[fits] % grid_res).T), coeffs[fits])
    return np.fft.irfftn(grid, norm="forward") if hermitian else grid.size * np.fft.ifftn(grid)


def compute_phi(g: Generator, lattice: LatticeSpec, grid_res: int,
                target_tail: float | None = None) -> PeriodizationTable:
    """Tabulate the periodized power spectrum of ``g`` on the [0,1)^d grid:
    the self pair of ``compute_cross_phi``, which chooses the route and the
    truncation and clips rounding below zero.  Its default targets are lower
    bounds on max phi, so the tail stays negligible against classification
    tolerances.
    """
    return compute_cross_phi(g, g, lattice, grid_res, target_tail)


def _cross_sum(g: Generator, psi: Generator, lattice: LatticeSpec, pts: np.ndarray,
               ks: np.ndarray) -> np.ndarray:
    """The lattice sum of psihat * conj(fhat) over the integer vectors ks at
    the (m, d) points pts, over |det B|."""

    def cross(args):
        fhat = g.fourier(args)
        return np.abs(fhat) ** 2 if psi is g else psi.fourier(args) * np.conj(fhat)

    return _lattice_sum(cross, pts, ks, lattice.dual_basis) / lattice.det_abs


def cross_phi_values(g: Generator, psi: Generator, lattice: LatticeSpec,
                     grid_res: int, radius: int) -> np.ndarray:
    """Grid samples of the mixed periodization of psihat * conj(fhat), the
    lattice sum over |k|_inf <= radius: the direct route of
    ``compute_cross_phi``.  For the self pair the summand is |fhat|^2, real,
    with one transform evaluation per point.
    """
    _validate_grid(grid_res)
    ks = _sum_box(lattice.dim, radius, grid_res**lattice.dim)
    pts = grid_gamma(lattice.dim, grid_res)
    return _cross_sum(g, psi, lattice, pts, ks).reshape((grid_res,) * lattice.dim)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of an array, ascending (sort and diff: np.unique
    imports numpy.ma, a cost on every cold call)."""
    values = np.sort(values, axis=None)
    return values[np.append(True, np.diff(values) > 0)]


def _box_cells(lo: np.ndarray, hi: np.ndarray, a: np.ndarray, basis: np.ndarray, radius: int):
    """The cells of the count #{k : lo <= a (gamma + k) < hi}, a = inv(basis.T),
    at the lattice-sum radius ``radius``: the kept k (those whose box meets the
    bounding box of the unit cell's image widened by ``near``), the count at
    each cell midpoint, and per axis the cells that meet that bounding box and
    the face clusters widened by ``near`` as (starts, ends); or None when the
    cells times the kept k exceed one block.  Faces closer than ``_MERGE_FRAC``
    of the axis scale merge, so a cell that thin counts as null."""
    cell_lo, cell_hi = np.minimum(a, 0.0).sum(axis=1), np.maximum(a, 0.0).sum(axis=1)
    # bounds |a (gamma + k)| in the lattice sum and |lo|, |hi|
    scale = np.abs(a).sum(axis=1) * (radius + 1) + np.maximum(np.abs(lo), np.abs(hi))
    near = _FACE_FRAC * scale
    q_lo, q_hi = lo - cell_hi - near, hi - cell_lo + near  # kept: a k in [q_lo, q_hi]
    ks = _index_box(q_lo, q_hi, basis)  # B^T v per row
    if ks is None:
        return None
    shift = ks @ a.T
    kept = np.all((shift >= q_lo) & (shift <= q_hi), axis=1)
    ks, shift = ks[kept], shift[kept]
    lows, highs = lo - shift, hi - shift
    mids, meets, bounds = [], [], []
    for i, width in enumerate(scale):
        f = np.sort(np.concatenate([lows[:, i], highs[:, i]]))
        split = np.diff(f) > _MERGE_FRAC * width
        first, last = f[np.append(True, split)], f[np.append(split, True)]
        mids.append(np.hstack([first[0] - width, 0.5 * (last[:-1] + first[1:]), last[-1] + width]))
        meets.append(np.append(True, last < cell_hi[i]) & np.append(first > cell_lo[i], True))
        bounds.append((first - near[i], last + near[i]))
    if lows.shape[0] * math.prod(m.size for m in mids) > _integrate.BLOCK_BUDGET:
        return None
    inside = [((lows[:, i, None] <= m) & (m < highs[:, i, None])).astype(float)
              for i, m in enumerate(mids)]
    axes = "abc"[:len(mids)]
    counts = np.einsum(",".join("k" + c for c in axes) + "->" + axes, *inside)
    return ks, counts, meets, bounds


def _axis_counts(lo: float, hi: float, a: float, b: float, radius: int, grid_res: int):
    """One axis of a step table on a diagonal lattice: the 1-d lattice sum
    #{k : lo <= a (j / N + k) < hi} over the kept k at the N grid points, and
    the distinct counts of the cells that meet the unit cell's image; or None
    when those cells exceed one block.  fl(fl(j / N + k) a) is monotone in j,
    so a k inside [lo, hi) at the first and last grid point counts 1 at every
    one, and only the k whose faces cross the grid take the sum."""
    cells = _box_cells(np.array([lo]), np.array([hi]), np.array([[a]]), np.array([[b]]), radius)
    if cells is None:
        return None
    ks, counts, (meets,), _ = cells
    pts = (np.arange(grid_res) / grid_res)[:, None]
    ends = (ks + pts[[0, -1], 0]) * a
    whole = np.all((lo <= ends) & (ends < hi), axis=1)
    values = np.count_nonzero(whole) + _lattice_sum(
        lambda u: ((lo <= u) & (u < hi)).astype(float), pts, ks[~whole], np.array([[a]]))
    return values, _distinct(counts[meets])


def _step_table(g: Generator, lattice: LatticeSpec, grid_res: int):
    """Grid samples, radius and essential range of phi for a generator whose
    |fhat|^2 is the indicator of the half-open box [lo, hi), or None.

    With A = inv(B.T) and u = A gamma, |det B| phi is the count of k with
    lo - A k <= u < hi - A k, constant on the cells of ``_box_cells``.  All k
    whose box meets the bounding box of the unit cell's image count, so the
    count is exact there; one that rounding drops has faces about ``near``
    outside it and adds 0 at every grid point.  The count is A Z^d-periodic,
    so the distinct counts of the cells meeting the bounding box, over
    |det B|, are the essential range.

    On a diagonal A, 1-d included, the count is prod_i #{k_i : lo_i <= a_ii
    (gamma_i + k_i) < hi_i}: the table is the outer product of one 1-d lattice
    sum per distinct axis (``_axis_counts``) over |det B|, and the range the
    distinct products of the axes' cell counts.  The full sum's matmul adds
    exact zeros to fl(fl(gamma_i + k_i) a_ii) and the counts are small
    integers, so the table equals ``cross_phi_values`` at the same radius bit
    for bit.

    Otherwise (a basis that mixes axes, so d >= 2) u is affine along a grid
    row (the last axis), so the row crosses each face cluster once: a ceil or
    floor of (edge - u_0) / slope gives the first grid index past it.  The
    row's crossings, sorted with their axis and start or end label, cut it
    into runs, and a cumulative count of the labels gives each run's cell.  A
    run within ``near`` (``_FACE_FRAC`` of the scale) of a face takes the
    lattice sum over the kept k: its summands are 0 or 1, and the other k add
    zeros, so again the table is that sum bit for bit.

    The radius is the smallest one whose tail under ``g.decay_bound()`` is 0,
    the one the direct route records: past ``K_CAP`` it raises at once
    (TailNotAchievable); None when the cells times the kept k exceed one block
    (on one axis, for a diagonal A).
    """
    box = g.indicator_box()
    if box is None:
        return None
    d, a = lattice.dim, lattice.dual_basis
    lo, hi = (np.asarray(c, dtype=float) for c in box)
    envelope = g.decay_bound()  # vanishes past the box
    radius, _ = _smallest_radius(lambda k: envelope.lattice_tail(lattice, k), K_CAP[d], 0.0,
                                 g.label)
    if np.array_equal(a, np.diag(np.diagonal(a))):
        axis_keys = list(zip(lo.tolist(), hi.tolist(), np.diagonal(a).tolist(),
                             np.diagonal(lattice.basis).tolist()))
        per_axis = {key: _axis_counts(*key, radius, grid_res) for key in dict.fromkeys(axis_keys)}
        if None in per_axis.values():
            return None
        axes = [per_axis[key] for key in axis_keys]
        values = math.prod(np.ix_(*(v for v, _ in axes))) / lattice.det_abs
        seen = _distinct(math.prod(np.ix_(*(c for _, c in axes))))
        return values, radius, tuple((seen / lattice.det_abs).tolist())
    cells = _box_cells(lo, hi, a, lattice.basis, radius)
    if cells is None:
        return None
    ks, counts, meets, bounds = cells
    value_range = tuple((_distinct(counts[np.ix_(*meets)]) / lattice.det_abs).tolist())
    # label 0 opens a row, 2i + 1 and 2i + 2 pass a start and an end of a cluster
    # of axis i: starts step the flat cell index by the axis's stride (down where u
    # falls), and starts less ends, negated there so that none is < 0, count faces
    base = _integrate.mesh([np.arange(grid_res) / grid_res] * (d - 1) + [[0.0]]) @ a.T
    slope, size = a[:, -1] / grid_res, counts.shape
    keys, to_cell, to_face = [np.zeros((1, base.shape[0]), np.intp)], [0], [0]
    with np.errstate(over="ignore"):  # a crossing far off the row, clipped below
        for i, (starts, ends) in enumerate(bounds):
            rise, stride = (-1 if slope[i] < 0 else 1), math.prod(size[i + 1:])
            to_cell[0] += stride * (size[i] - 1) * (rise < 0)
            to_cell, to_face = to_cell + [rise * stride, 0], to_face + [rise, -rise]
            for label, e, strict in ((2 * i + 1, starts, False), (2 * i + 2, ends, True)):
                if slope[i] == 0.0:
                    below = (np.less if strict else np.less_equal)(e[:, None], base[:, i])
                    start = np.where(below, 0, grid_res)
                else:
                    t = (e[:, None] - base[:, i]) / slope[i]
                    start = np.clip(np.floor(t) + 1 if (rise > 0) == strict else np.ceil(t),
                                    0, grid_res).astype(np.intp)
                keys.append(start * (2 * d + 1) + label)
    at, label = np.divmod(np.sort(np.concatenate(keys).T, axis=1), 2 * d + 1)
    runs = np.diff(at, axis=1, append=grid_res).ravel()
    cell = np.cumsum(np.array(to_cell)[label], axis=1).ravel()
    values = np.repeat(counts.ravel()[cell] / lattice.det_abs, runs)
    on_face = (np.cumsum(np.array(to_face)[label], axis=1).ravel() > 0) & (runs > 0)
    if np.any(on_face):
        idx = np.flatnonzero(np.repeat(on_face, runs))
        pts = np.stack(np.unravel_index(idx, (grid_res,) * d), axis=1)
        values[idx] = _cross_sum(g, g, lattice, pts / grid_res, ks)
    return values.reshape((grid_res,) * d), radius, value_range


def _require_finite(values: np.ndarray, what: str, where: str):
    """Raise NonFiniteInput with the count of ``values`` that are not finite."""
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise NonFiniteInput(f"{what} not finite at {bad} of {values.size} {where}")


def compute_cross_phi(g: Generator, psi: Generator, lattice: LatticeSpec, grid_res: int,
                      target_tail: float | None = None) -> PeriodizationTable:
    """The table of the mixed periodization of psihat * conj(fhat), with the
    route, the sup-norm radius and the certified tail bound taken; its values
    are real for the self pair (``psi is g``), with rounding below zero
    clipped, and complex otherwise.

    Step route: for the self pair of a generator with an ``indicator_box``,
    the exact step function (``_step_table``) and its essential range, tail 0.
    Dual route: the Fourier coefficients a_n = <psi, g(. + B n)>, the
    autocorrelations for the self pair (``lattice_coefficients``), over
    ``_coefficient_set``, whose coefficient cube has the default target
    1e-10 ||f||^2, the mean of phi.  Coefficients that are not finite raise
    NonFiniteInput with their count, as a k = 0 term that is not finite does
    on the direct route.
    Direct route: the lattice sum of ``cross_phi_values``, its k = 0 term
    first and then the ring 1 <= |k|_inf <= R, at the smallest radius R whose
    tail bound is at most ``target_tail``: T_g(R) for the self pair
    (``choose_truncation``), else sqrt(T_psi(R) T_g(R)), which bounds the
    dropped cross terms by Cauchy-Schwarz at each gamma.  The default target
    is 1e-10 times the grid maximum of the k = 0 term; for the self pair
    every term is >= 0, so that is a lower bound on max phi.
    """
    _validate_grid(grid_res)
    check_dims(lattice, g, psi)
    if target_tail is not None:
        check_positive("target_tail", target_tail)
    tag = g.label if psi is g else f"{psi.label} against {g.label}"

    def table(values, route, radius, tail, essential_range=None):
        if psi is g:  # each route computes a fresh array: clip it in place
            values = np.maximum(values.real, 0.0, out=values.real)
        else:
            values = values.astype(complex, copy=False)
        return PeriodizationTable(
            lattice=lattice, grid_res=grid_res, values=values,
            trunc_radius=radius, tail=tail, generator_tag=tag, route=route,
            essential_range=essential_range)

    step = _step_table(g, lattice, grid_res) if psi is g else None
    if step is not None:
        values, radius, value_range = step
        return table(values, "step", radius, 0.0, value_range)
    cut = _coefficient_set(g, psi, lattice, target_tail)
    if cut is not None:
        ns, tail = cut
        coeffs = (lattice_coefficients(g, lattice, ns) if psi is g
                  else g.cross_correlation(psi, ns @ lattice.basis.T))
        _require_finite(coeffs, f"{tag}: Fourier coefficient", "lattice shifts")
        radius = int(np.abs(ns).max(initial=0))  # 0 for an empty set: every a_n vanishes
        return table(_series_values(ns, coeffs, grid_res, psi is g), "dual", radius, tail)
    k0 = cross_phi_values(g, psi, lattice, grid_res, 0)
    _require_finite(k0, f"{tag}: k = 0 term", "grid points")
    if target_tail is None:
        target_tail = 1e-10 * max(float(np.abs(k0).max()), 1e-30)
    if psi is g:
        radius, tail = choose_truncation(g, lattice, target_tail)
    else:
        radius, tail = _smallest_radius(
            lambda k: math.sqrt(tail_bound(psi, lattice, k) * tail_bound(g, lattice, k)),
            K_CAP[lattice.dim], target_tail, tag)
    ks = _sum_box(lattice.dim, radius, grid_res**lattice.dim)
    ring = _cross_sum(g, psi, lattice, grid_gamma(lattice.dim, grid_res), ks[np.any(ks, axis=1)])
    values = k0 + ring.reshape(k0.shape)
    return table(values, "direct", radius, tail)


# ---------------------------------------------------------------------------
# spatial periodization (L1 statement)
# ---------------------------------------------------------------------------


def periodize_l1(g: Generator, lattice: LatticeSpec, sample_points, radius: int):
    """Spatial periodization sum_k f(x + B k) at the given points in the cell.

    Returns ``(psi_values, (cell_integral, full_integral))`` where the pair
    holds a quadrature of the periodization over the fundamental cell and the
    integral of f over R^d, which is fhat(0); for integrable f the two agree
    up to truncation and quadrature error.

    Raises NoDecayInfo unless the generator kind is known to be integrable
    (frequency boxes and sincs are not).
    """
    check_integer("radius", radius, 0)
    if not g.integrable:
        raise NoDecayInfo(f"{g.label} is not known to be integrable in space")

    x = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if x.shape[1] != lattice.dim:
        raise ValueError(f"sample points must have dimension {lattice.dim}")
    u = x @ np.linalg.inv(lattice.basis).T
    if np.any(u < -1e-9) or np.any(u >= 1.0 + 1e-9):
        raise ValueError("sample points must lie in the fundamental cell")

    # f(x + B k) = f(B (u + k)) with u the cell coordinates of x
    m_per_axis = {1: 2048, 2: 128, 3: 32}[lattice.dim]
    ks = _sum_box(lattice.dim, radius, len(u) + m_per_axis**lattice.dim)
    psi = _lattice_sum(g.spatial, u, ks, lattice.basis)

    # cell integral: periodic rectangle rule on the warped unit grid
    ugrid = grid_gamma(lattice.dim, m_per_axis)
    psi_grid = _lattice_sum(g.spatial, ugrid, ks, lattice.basis)
    cell_integral = lattice.det_abs * float(np.mean(psi_grid.real))

    full_integral = float(g.fourier(np.zeros((1, lattice.dim)))[0].real)
    return psi, (cell_integral, full_integral)


# ---------------------------------------------------------------------------
# autocorrelation (Fourier coefficients of the periodization)
# ---------------------------------------------------------------------------


def _shift_index(n, dim: int) -> np.ndarray:
    """The integer shift index n as a (dim,) array."""
    nvec = np.atleast_1d(np.asarray(n, dtype=object))
    if nvec.shape != (dim,):
        raise ValueError(f"shift index must have dimension {dim}")
    if not all(map(is_integer, nvec)):
        raise ValueError(f"shift index must hold integers, got {n!r}")
    return nvec.astype(int)


def autocorrelation(g: Generator, lattice: LatticeSpec, n) -> complex:
    """Inner product of f with its translate by -B n.

    Equals the n-th Fourier coefficient of the periodized power spectrum:
    c_n = integral |fhat(xi)|^2 exp(-2 pi i xi . (B n)) d xi.  The value comes
    from ``g.autocorrelation``: closed forms for boxes, sincs, B-splines and
    Gaussians, the discrete overlap for sampled data, and frequency quadrature
    for other generators.
    """
    check_dims(lattice, g)
    shift = lattice.basis @ _shift_index(n, lattice.dim)
    return complex(g.autocorrelation(shift[None, :])[0])


def phi_fourier_coeffs(table: PeriodizationTable, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Fourier coefficients of the table for |n|_inf <= n_max: the
    integer vectors n of ``integer_box(d, n_max)``, in its lex order, and the
    complex coefficients at them.

    Grid coefficients alias orders beyond N/4, so larger requests are refused.
    """
    n = table.grid_res
    check_integer("n_max", n_max, 0)
    if n_max > n // 4:
        raise AliasRisk(f"n_max {n_max} exceeds alias-safe bound {n // 4}")
    spec = np.fft.fftn(table.values) / table.values.size
    ks = integer_box(table.dim, n_max)
    return ks, spec[tuple((ks % n).T)]


def perturbed_phi(table: PeriodizationTable, n) -> PeriodizationTable:
    """Table for the generator plus its lattice translate by index n.

    Adding the translate multiplies the transform by 1 + exp(-2 pi i xi.(B n)),
    which on the periodization grid collapses to the k-independent factor
    |1 + exp(-2 pi i gamma . n)|^2 = 4 cos^2(pi gamma . n).
    """
    nvec = _shift_index(n, table.dim)
    pts = grid_gamma(table.dim, table.grid_res)
    s = pts @ nvec
    factor = 4.0 * np.cos(np.pi * s) ** 2
    values = table.values * factor.reshape(table.values.shape)
    return replace(
        table,
        values=values,
        tail=4.0 * table.tail,
        generator_tag=f"{table.generator_tag}+translate{nvec.tolist()}",
        essential_range=None,  # the factor is continuous: the box's range does not carry
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def table_to_csv(table: PeriodizationTable) -> str:
    """CSV dump ``gamma_1,...,gamma_d,phi`` in lexicographic grid order."""
    pts = grid_gamma(table.dim, table.grid_res).tolist()
    row = ",".join(["{:.12g}"] * (table.dim + 1)).format
    header = ",".join(f"gamma_{i + 1}" for i in range(table.dim)) + ",phi"
    rows = [row(*p, v) for p, v in zip(pts, table.values.ravel().tolist())]
    return "\n".join([header] + rows) + "\n"


def table_to_json(table: PeriodizationTable) -> dict:
    """JSON-ready metadata plus the flat value array."""
    return {
        "generator": table.generator_tag,
        "lattice": table.lattice.basis.tolist(),
        "grid_res": table.grid_res,
        "trunc_radius": table.trunc_radius,
        "tail": table.tail,
        "values": table.values.ravel().tolist(),
    }
