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
# the partitions of the axes into two or more blocks, finest first
_PARTITIONS = {2: [((0,), (1,))],
               3: [((0,), (1,), (2,)), ((0, 1), (2,)), ((0, 2), (1,)), ((1, 2), (0,))]}


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
            try:
                finite = cmath.isfinite(c)
            except TypeError:  # not a number
                finite = False
            if not finite:
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
    forms neither: entries that factor over blocks of axes within its bound,
    c_n = c_0 prod_P u_P(n_P), take one section per block, and each block of
    two or more axes, or section that factors over none, splits into real
    symmetric halves under the joint flip n -> -n.
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

    def _block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries [j, k] for (p, d) index rows j and (q, d) columns k."""
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        r = 2 * self.half_width
        if rows.size and cols.size and (
                np.any(cols.max(axis=0) - rows.min(axis=0) > r)
                or np.any(cols.min(axis=0) - rows.max(axis=0) < -r)):
            raise KeyError(f"index difference beyond the stored radius {r}")
        return self.diffs.reshape(-1)[_offsets(rows, cols, r)]

    def entry(self, j, k) -> complex:
        return complex(self._block(np.atleast_1d(j)[None], np.atleast_1d(k)[None])[0, 0])

    def dense(self) -> np.ndarray:
        idx = integer_box(self.dim, self.half_width)
        return self._block(idx, idx)


def _offsets(rows: np.ndarray, cols: np.ndarray, r: int) -> np.ndarray:
    """Offsets into flat difference entries of shape (2r+1,)^d of the entries
    c_(k-j) for (p, d) index rows j and (q, d) columns k, |k - j|_inf <= r;
    they are linear in the index, so no (p, q, d) difference array is formed."""
    strides = (2 * r + 1) ** np.arange(rows.shape[1] - 1, -1, -1)
    return (cols @ strides + r * int(strides.sum()))[None, :] - (rows @ strides)[:, None]


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
    of the entries moves no eigenvalue more than ||dc||_1; and max|c| <=
    ||G||_2.  Entries with |c_n| <= eps^2 max|c|, which slow the solver in
    the subnormal range, are zeroed first: under the size cap that moves no
    eigenvalue more than 4096 eps^2 max|c| ~ 2e-28 ||G||_2.

    Factor (d >= 2, M >= 1, |c_0| = max|c|, as for every autocorrelation):
    with u_P the Hermitian part of c on the axes of block P, over c_0,
    c^(n) = c_0 prod_P u_P(n_P) has the section c_0 (x)_P T(u_P), whose
    eigenvalues are the products of the blocks' (Horn & Johnson, Topics in
    Matrix Analysis, 1991, Thm 4.2.12).  The first partition of the axes,
    finest first, with ||c - c^||_1 <= (2M+1)^d eps max|c|, within the dense
    solver's own backward error, stands for G.  A one-axis block is a
    Toeplitz section of order 2M+1.

    Split: a block of two or more axes, or a section that factors over no
    partition, takes the joint flip sigma n = -n, G[sigma j, sigma k] =
    conj G[j, k].  On the points up to the centre, with S = G[j, k] and
    R = G[j, sigma k], the halves E = S + conj R and O = S - conj R, weighted
    1/sqrt 2 per index at the centre, are G in the bases
    (e_x +- e_(sigma x))/sqrt 2 (Cantoni & Butler, Linear Algebra Appl. 13,
    1976); real entries solve E and O without its centre.  Complex ones take
    the real symmetric K = [[Re E, Im O_r^T], [Im O_r, Re O_rr]] (A. Lee,
    Linear Algebra Appl. 29, 1980), O_r being O without its rows at the
    centre, O_rr without its columns there too.
    ``eigvalsh(gram.dense())`` is the test reference.
    """
    bad = int(np.count_nonzero(~np.isfinite(gram.diffs)))
    if bad:
        raise ConvergenceFailure(
            f"gram difference entries hold {bad} non-finite value(s) of {gram.diffs.size}")
    eps = np.finfo(float).eps
    mag = np.abs(gram.diffs)
    top = mag.max()  # the flush below keeps it
    c = np.where(mag > eps ** 2 * top, gram.diffs, 0)
    if not np.any(c.imag):
        c = c.real
    d, m = gram.dim, gram.half_width
    c0 = c[(2 * m,) * d].real
    for blocks in _PARTITIONS.get(d, []) if m and 0 < top <= abs(c0) else []:
        us = [c[tuple(slice(None) if a in p else 2 * m for a in range(d))] for p in blocks]
        us = [(u + np.flip(u).conj()) / (2 * c0) for u in us]
        # the product's axes run block by block, as those of c transposed
        gap = np.abs(c.transpose(sum(blocks, ())) - c0 * functools.reduce(np.multiply.outer, us))
        if gap.sum() <= (2 * m + 1) ** d * eps * abs(c0):
            idx = np.arange(2 * m + 1)
            toeplitz = 2 * m + idx - idx[:, None]  # a one-axis block's entry [j, k] is u(k - j)
            eig = c0 * functools.reduce(np.multiply.outer, (
                _eigvalsh(u[toeplitz]) if u.ndim == 1 else _flip_split(u)
                for u in us))
            break
    else:
        eig = _flip_split(c)
    return float(eig.min()), float(eig.max())


def _flip_split(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the section of Hermitian entries c, of shape
    (4M+1,)^k, from its halves under the joint flip."""
    k, m = c.ndim, (len(c) - 1) // 4
    h = ((2 * m + 1) ** k - 1) // 2
    reps = integer_box(k, m)[:h + 1]  # the points up to the centre, which is last
    # lo[j, k] = c(k - j), hi[j, k] = c(k + j)
    lo, hi = c.reshape(-1)[_offsets(np.concatenate([reps, -reps]), reps, 2 * m)].reshape(
        2, h + 1, h + 1)
    even, odd = halves = np.stack([lo + hi, lo - hi])
    halves[:, -1, :-1] *= math.sqrt(0.5)  # 1/sqrt 2 for each of j, k at the centre
    halves[:, :-1, -1] *= math.sqrt(0.5)
    halves[:, -1, -1] *= 0.5
    if np.any(c.imag):
        return _eigvalsh(np.block([[even.real, odd[:-1].imag.T],
                                   [odd[:-1].imag, odd[:-1, :-1].real]]))
    return np.concatenate([_eigvalsh(even.real), _eigvalsh(odd[:-1, :-1].real)])


def _eigvalsh(k: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(k)
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
    quadratic -- the Gram quadratic form, its entries c_n at those differences

    All three estimate the same quantity; their agreement validates both the
    table and the Gram entries.  The direct route shares no closed form with
    the Gram route: Q takes d one-dimensional rules when g has
    ``axis_factors``, else one d-dimensional mesh, which raises TooLarge past
    the panel cap of ``_integrate.grid_blocks``.
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

    # quadratic form: Gram entry [j, k] is c_(k_k - k_j) = <f(. - B k_k),
    # f(. - B k_j)>, read at the same differences; the norm is conj(c)^T G c
    full = np.concatenate([diffs, -diffs[-2::-1]])
    gram = lattice_coefficients(g, lattice, full)[inverse].reshape(len(cs), -1).T
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
