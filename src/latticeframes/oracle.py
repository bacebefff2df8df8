"""Definition-level verification: truncated Gram matrices of the translate
system, synthesis-norm identities on explicit coefficient vectors, analysis
coefficients, and span membership via the projection formula.

Everything here works directly with inner products of translates, so it can
cross-check the grid classification without sharing its code path.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConvergenceFailure, DegenerateSpan, TooLarge
from .generators import Generator, _frequency_integral
from .lattice import LatticeSpec, check_dims, check_integer, check_table, integer_box, is_integer
from .periodization import (
    PeriodizationTable,
    _series_values,
    compute_cross_phi,
    lattice_coefficients,
)

MAX_GRAM_SIZE = 4096
MEMBER_TOL = 1e-6  # residual share of ||psi||^2 that still counts as in the span


@dataclass(frozen=True)
class CoefficientVector:
    """Finitely supported coefficients c_k, keyed by integer tuples of one length."""

    entries: dict

    def __post_init__(self):
        if not self.entries:
            raise ValueError("coefficient vector must have nonempty support")
        first = next(iter(self.entries))
        for k, c in self.entries.items():
            if not (isinstance(k, tuple) and len(k) == len(first) and all(map(is_integer, k))):
                raise ValueError(f"coefficient keys must be tuples of integers, all as long "
                                 f"as the first key {first!r}; got {k!r}")
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at {k!r} must be finite, got {c!r}")
        if all(c == 0 for c in self.entries.values()):
            raise ValueError("coefficient vector must not be identically zero")

    def support_radius(self) -> int:
        return max(max(abs(int(v)) for v in k) for k in self.entries)

    def norm_squared(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.entries.values()))


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian block-Toeplitz matrix of translate inner products.

    Only the difference entries are stored: ``diffs`` has shape (4M+1,)^d and
    holds c_n at n + 2M for |n|_inf <= 2M, and entry [j, k] is c_(k-j).  The
    entries must be Hermitian, c_(-n) = conj(c_n), to eps max|c|: the solver
    reads the section as centrohermitian.  ``dense()`` materializes the full
    ((2M+1)^d)^2 matrix in lexicographic index order; it serves the CLI
    ``gram`` CSV and is the reference in the tests.  ``gram_eigen_bounds``
    forms neither: entries that factor, c_n = c_0 prod_a u_a(n_a) within its
    bound, take d Toeplitz sections of order 2M+1; the rest take real
    symmetric blocks, one per even / odd pattern of the axis flips that the
    entries respect (to eps max|c| in l1), for real and complex entries alike.
    """

    half_width: int
    dim: int
    diffs: np.ndarray

    def __post_init__(self):
        check_integer("half_width", self.half_width, 0)
        check_integer("dim", self.dim, 1)
        shape = (4 * self.half_width + 1,) * self.dim
        if np.shape(self.diffs) != shape:
            raise ValueError(f"gram diffs must have shape {shape}, got {np.shape(self.diffs)}")
        c = np.asarray(self.diffs)
        with np.errstate(invalid="ignore"):  # non-finite entries fail in gram_eigen_bounds
            gap = float(np.abs(c - np.flip(c).conj()).max())
        if gap > np.finfo(float).eps * np.abs(c).max():
            raise ValueError(f"gram difference entries must satisfy c_(-n) = conj(c_n); "
                             f"the largest |c_(-n) - conj(c_n)| is {gap:.3g}")

    def _offsets(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Offsets into the flat ``diffs`` of entries [j, k] for (p, d) index
        rows j and (q, d) columns k; they are linear in the index, so no
        (p, q, d) difference array is formed."""
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        r = 2 * self.half_width
        if rows.size and cols.size and (
                np.any(cols.max(axis=0) - rows.min(axis=0) > r)
                or np.any(cols.min(axis=0) - rows.max(axis=0) < -r)):
            raise KeyError(f"index difference beyond the stored radius {r}")
        strides = (2 * r + 1) ** np.arange(self.dim - 1, -1, -1)
        return (cols @ strides + r * int(strides.sum()))[None, :] - (rows @ strides)[:, None]

    def _block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.diffs.reshape(-1)[self._offsets(rows, cols)]

    def entry(self, j, k) -> complex:
        return complex(self._block(np.atleast_1d(j)[None], np.atleast_1d(k)[None])[0, 0])

    def dense(self) -> np.ndarray:
        idx = integer_box(self.dim, self.half_width)
        return self._block(idx, idx)


def gram_matrix(g: Generator, lattice: LatticeSpec, half_width: int) -> GramMatrix:
    """Gram matrix of translates with indices in the sup-norm box of radius M.

    The difference entries are the lattice coefficients c_n for
    |n|_inf <= 2M, so the Toeplitz and Hermitian structure hold by
    construction.
    """
    check_dims(lattice, g)
    check_integer("half_width", half_width, 1)
    size = (2 * half_width + 1) ** lattice.dim
    if size > MAX_GRAM_SIZE:
        raise TooLarge(f"gram matrix of size {size} exceeds cap {MAX_GRAM_SIZE}")

    diffs = lattice_coefficients(g, lattice, integer_box(lattice.dim, 2 * half_width))
    return GramMatrix(half_width=half_width, dim=lattice.dim,
                      diffs=diffs.reshape((4 * half_width + 1,) * lattice.dim))


def gram_eigen_bounds(gram: GramMatrix) -> tuple[float, float]:
    """Extreme eigenvalues of the Gram section, from small Hermitian solves.

    A row of the section holds each c_n at most once, so by Weyl a change dc
    of the entries moves no eigenvalue more than ||dc||_1, nor more than
    (2M+1)^d max|dc|; and max|c| <= ||G||_2.  Entries with |c_n| <=
    eps^2 max|c| are zeroed first, as smooth autocorrelations reach the
    subnormal range, where the solver is slow: under the size cap that moves
    no eigenvalue more than 4096 eps^2 max|c| ~ 2e-28 ||G||_2.

    Entries that factor (d >= 2, M >= 1, |c_0| = max|c|, as Cauchy-Schwarz
    gives every autocorrelation): with u_a the Hermitian part of
    c(j e_a) / c_0, c^(n) = c_0 prod_a u_a(n_a) has the section
    c_0 (x)_a T(u_a), T(u_a) Toeplitz of order 2M+1, so its eigenvalues are
    the products c_0 prod_a lambda_a of theirs (Horn & Johnson, Topics in
    Matrix Analysis, 1991, Thm 4.2.12).  They stand for G's when
    ||c - c^||_1 <= (2M+1)^d eps max|c| <= (2M+1)^d eps ||G||_2, within the
    dense solver's own backward error at order (2M+1)^d.  Tensor-product
    kinds factor on diagonal lattices, the Gaussian on orthogonal ones too.

    Otherwise axis a is invariant when D_a = sum_n |c(P_a n) - c(n)| <=
    eps max|c|, P_a negating coordinate a; averaging c over those flips moves
    it by at most sum_a D_a / 2 <= d eps max|c| / 2.  The flip groups are
    each invariant axis alone and the other axes jointly.  An invariant
    group's flip sigma is unitary, G[sigma j, sigma k] = G[j, k]; as
    c_(-n) = conj(c_n), the joint flip gives conj G[j, k], antiunitary
    unless c is real, as it is up to rounding with every axis invariant.
    On the points j, k up to each group's centre, a pattern's even / odd half
    sums c(k - sigma_U j) over the sets U of flipped groups, signed -1 per
    odd group in U and weighted 1/sqrt 2 for each of j, k at an even group's
    fixed point; odd groups skip their fixed points.  These are the blocks
    of G in the bases (e_x +- e_(sigma x))/sqrt 2 (Cantoni & Butler, Linear
    Algebra Appl. 13, 1976), so real entries solve every half.  For complex
    ones, within a pattern of the invariant groups let X be the points
    before the joint centre, S = G[X, X], R = G[X, sigma X]: the joint halves
    are E = S + conj R, with the centre, and O = S - conj R.  The unitary
    taking e_x, e_0, e_(sigma x) to (e_x + e_(sigma x))/sqrt 2, e_0,
    i(e_x - e_(sigma x))/sqrt 2 makes the pattern the real symmetric
    K = [[Re E, Im O_r^T], [Im O_r, Re O_rr]] (A. Lee, Linear Algebra Appl.
    29, 1980), O_r being O without its rows at the centre, O_rr without its
    columns there too: S is Hermitian and R, by the antiunitary flip,
    symmetric, so Im(R - S) = Im O^T.
    ``eigvalsh(gram.dense())`` is the test reference.
    """
    bad = int(np.count_nonzero(~np.isfinite(gram.diffs)))
    if bad:
        raise ConvergenceFailure(
            f"gram difference entries hold {bad} non-finite value(s) of {gram.diffs.size}")
    eps = np.finfo(float).eps
    c = np.where(np.abs(gram.diffs) > eps ** 2 * np.abs(gram.diffs).max(), gram.diffs, 0)
    if not np.any(c.imag):
        c = c.real
    d, m = gram.dim, gram.half_width
    c0 = c[(2 * m,) * d].real
    if d > 1 and m and 0 < np.abs(c).max() <= abs(c0):
        fibres = [c[(2 * m,) * a + (slice(None),) + (2 * m,) * (d - a - 1)] for a in range(d)]
        fibres = [(f + f[::-1].conj()) / (2 * c0) for f in fibres]
        gap = np.abs(c - c0 * functools.reduce(np.multiply.outer, fibres)).sum()
        if gap <= (2 * m + 1) ** d * eps * abs(c0):
            idx = np.arange(2 * m + 1)
            toeplitz = 2 * m + idx - idx[:, None]  # entry [j, k] is u(k - j)
            eig = c0 * functools.reduce(np.multiply.outer, _eigvalsh(u[toeplitz] for u in fibres))
            return float(eig.min()), float(eig.max())
    axes = [a for a in range(d) if np.abs(np.flip(c, a) - c).sum() <= eps * np.abs(c).max()]
    for a in axes:
        c = 0.5 * (c + np.flip(c, a))
    rest = [a for a in range(d) if a not in axes]
    if not rest:  # even and Hermitian
        c = c.real
    groups = [[a] for a in axes] + ([rest] if rest else [])
    n_groups = len(groups)
    # the box with its axes in group order is the product of the groups'
    # sub-boxes; each keeps its points up to its centre, the fixed point
    sizes = [(2 * m + 1) ** len(g) for g in groups]
    shape = tuple((size + 1) // 2 for size in sizes)
    reps = integer_box(d, m).reshape(sizes + [d])[tuple(map(slice, shape))]
    reps = reps[..., np.argsort(sum(groups, []))].reshape(-1, d)
    flips = np.array(list(product((False, True), repeat=n_groups)))
    member = np.array([[a in g for a in range(d)] for g in groups])
    # sums[U][j, k] = c(k - sigma_U j); U runs over the subsets of groups,
    # flipped in lex order
    rows = (np.where(flips @ member, -1, 1)[:, None, :] * reps).reshape(-1, d)
    sums = c.reshape(-1)[gram._offsets(rows, reps)].reshape((2,) * n_groups + shape * 2)
    for i in range(n_groups):  # unflipped, flipped -> even, odd in group i
        lo, hi = np.moveaxis(sums, i, 0)
        lo[...], hi[...] = lo + hi, lo - hi
        # 1/sqrt 2 for each of j, k at the group's fixed point
        at = np.moveaxis(sums, (n_groups + i, 2 * n_groups + i), (0, 1))
        at[-1, :-1] *= math.sqrt(0.5)
        at[:-1, -1] *= math.sqrt(0.5)
        at[-1, -1] *= 0.5

    def half(odd, cols=True):  # odd groups skip their fixed points, in cols if asked
        keep = tuple(slice(-1 if o else None) for o in odd)
        block = sums[tuple(odd.astype(int))][keep + (keep if cols else keep[:-1] + (slice(None),))]
        return block.reshape(math.prod(block.shape[:n_groups]), math.prod(block.shape[n_groups:]))

    if np.iscomplexobj(c):  # one K per pattern of the invariant groups
        blocks = []
        for even, odd in zip(flips[::2], flips[1::2]):
            o_r = half(odd, cols=False)
            blocks.append(np.block([[half(even).real, o_r.imag.T], [o_r.imag, half(odd).real]]))
    else:
        blocks = [half(odd) for odd in flips]
    eig = np.concatenate(_eigvalsh(blocks))
    return float(eig.min()), float(eig.max())


def _eigvalsh(blocks) -> list:
    try:
        return [np.linalg.eigvalsh(k) for k in blocks]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue solver failed: {exc}") from exc


# ---------------------------------------------------------------------------
# synthesis / analysis identities
# ---------------------------------------------------------------------------


def synthesis_norm(g: Generator, lattice: LatticeSpec, c: CoefficientVector,
                   table: PeriodizationTable) -> tuple[float, float, float]:
    """Squared norm of sum_k c_k (translate of f by B k), three ways.

    direct    -- sum_(j,k) c_j conj(c_k) Q(B (k_j - k_k)), Q(t) the frequency
                 quadrature of |fhat|^2 exp(-2 pi i xi . t) over R^d, taken
                 once per distinct difference
    spectral  -- grid quadrature of |trig poly of c|^2 times the table
    quadratic -- the Gram quadratic form over the support of c

    All three estimate the same quantity; their agreement validates both the
    table and the Gram section, built here over the support of c.  The direct
    route shares no closed form with the Gram route: Q takes d one-dimensional
    rules when g has ``axis_factors``, else one d-dimensional mesh, which
    raises TooLarge past the panel cap of ``_integrate.grid_blocks``.
    """
    check_dims(lattice, g)
    check_table(lattice, table)
    ks = np.array(list(c.entries), dtype=int)
    if ks.shape[1] != lattice.dim:
        raise ValueError(f"coefficient keys have length {ks.shape[1]}, "
                         f"the lattice dimension {lattice.dim}")
    cs = np.array(list(c.entries.values()), dtype=complex)
    # direct route: an error of at most tol in each Q moves the double sum by
    # at most (sum |c|)^2 tol, so the absolute error stays under 1e-9 for any c
    mass = float(np.sum(np.abs(cs)))
    # the differences k_j - k_k, |.|_inf <= 2r, by their offsets in the lex
    # order of that box; sorted, entry -1 - i is minus entry i, and
    # Q(-t) = conj Q(t), so the half up to 0 gives the rest
    r = c.support_radius()
    strides = (4 * r + 1) ** np.arange(lattice.dim - 1, -1, -1)
    offsets, inverse = np.unique((ks @ strides)[:, None] - ks @ strides, return_inverse=True)
    half = offsets[:len(offsets) // 2 + 1] + 2 * r * int(strides.sum())
    diffs = np.stack(np.unravel_index(half, (4 * r + 1,) * lattice.dim), axis=1) - 2 * r
    q = _frequency_integral(g, g, diffs @ lattice.basis.T, 1e-9 / (1.0 + mass**2))
    q = np.concatenate([q, q[-2::-1].conj()])
    direct = float(np.real(cs @ q[inverse].reshape(len(cs), -1) @ cs.conj()))

    # spectral route on the table grid: sum_k c_k exp(-2 pi i k . gamma) is
    # the series of the coefficients at -k
    poly = _series_values(-ks, cs, table.grid_res)
    spectral = float(np.mean(np.abs(poly) ** 2 * table.values))

    # quadratic form through the Gram section over the support of c: entry
    # [j, k] is <f(. - B k_k), f(. - B k_j)>, so the norm is conj(c)^T G c
    gram = gram_matrix(g, lattice, max(1, r))._block(ks, ks)
    return direct, spectral, float((cs.conj() @ gram @ cs).real)


def analysis_coefficients(g: Generator, lattice: LatticeSpec, h: Generator,
                          half_width: int) -> np.ndarray:
    """Inner products <h, f(. - B k)> for |k|_inf <= half_width, lexicographic
    in k: one ``Generator.cross_correlation`` call at the shifts -B k."""
    check_dims(lattice, g, h)
    return g.cross_correlation(h, -(integer_box(lattice.dim, half_width) @ lattice.basis.T))


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """The projection residual and multiplier, and how the cross periodization
    was summed: ``route`` "dual" or "direct", ``trunc_radius`` the sup-norm
    radius of its coefficient box or lattice sum, ``tail`` the certified bound
    on its dropped part at every gamma (none of them serialized)."""

    residual_norm_sq: float
    is_member: bool
    F_samples: np.ndarray  # periodic multiplier on the grid; NaN off support
    route: str
    trunc_radius: int
    tail: float


def project_onto_span(g: Generator, lattice: LatticeSpec, psi: Generator,
                      table: PeriodizationTable,
                      eps_zero: float | None = None) -> ProjectionResult:
    """Project psi onto the closed span of the translates of g.

    Membership is equivalent to psihat = F * fhat for a lattice-periodic F;
    on the off-zero set of the table the candidate multiplier is the ratio of
    the mixed periodization to the power periodization, and the squared
    projection residual is ||psi||^2 minus the grid integral of
    |mixed|^2 / phi over that set.  The mixed periodization comes from
    ``compute_cross_phi``; on the direct route its dropped part is at most
    1e-10 sqrt(||psi||^2 max phi), that scale bounding |mixed| by
    Cauchy-Schwarz where phi peaks.
    """
    check_dims(lattice, g, psi)
    check_table(lattice, table)
    mask = table.values >= table.zero_threshold(eps_zero)
    if not np.any(mask):
        raise DegenerateSpan("periodization vanishes on the entire grid")

    psi_norm = psi.norm_squared()
    target = 1e-10 * math.sqrt(psi_norm * float(table.values.max()))
    cross = compute_cross_phi(g, psi, lattice, table.grid_res, target)

    f_samples = np.full(table.values.shape, np.nan + 0j, dtype=complex)
    f_samples[mask] = cross.values[mask] / table.values[mask]

    captured = float(
        np.sum(np.abs(cross.values[mask]) ** 2 / table.values[mask]) / table.values.size
    )
    residual = psi_norm - captured
    if -1e-9 * max(psi_norm, 1.0) < residual < 0.0:
        residual = 0.0
    return ProjectionResult(
        residual_norm_sq=residual,
        is_member=bool(residual <= MEMBER_TOL * max(psi_norm, 1e-30)),
        F_samples=f_samples,
        route=cross.route,
        trunc_radius=cross.trunc_radius,
        tail=cross.tail,
    )
