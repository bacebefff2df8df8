"""Generator catalog: functions with evaluable Fourier transforms and decay data.

Transform convention: fhat(xi) = integral f(x) exp(-2*pi*i*xi.x) dx.

Every generator can evaluate its transform pointwise, report its
autocorrelation <f, f(. + t)> (and from it the squared L2 norm), and certify
how fast |fhat|^2 decays; Gaussians also certify how fast the autocorrelation
decays, and boxes and sincs declare that |fhat|^2 is a box indicator.  The
decay data is what lets lattice sums of |fhat|^2, or Fourier series of
autocorrelations, be truncated with a guaranteed error bound, so the catalog
is deliberately small: boxes, sincs, B-splines, Gaussians, and uniformly
sampled compactly supported data.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ._integrate import cis, grid_blocks, grid_exp_sum, mesh, row_blocks
from .errors import NoDecayInfo, ZeroGenerator
from .lattice import LatticeSpec, check_finite, check_integer, check_positive, operator_inf_norm

# ---------------------------------------------------------------------------
# decay envelopes
# ---------------------------------------------------------------------------


# shells past the truncation radius that envelope tails sum term by term
_EXPLICIT_SHELLS = 64
# alpha_d with (2m+1)^d - (2m-1)^d, the count of sup-norm m, <= alpha_d (m-1)^(d-1) for m >= 2
_SHELL_COEFF = {1: 2.0, 2: 16.0, 3: 98.0}


def _shell_sum(dim: int, radius: int, envelope) -> float:
    """sum over the shells m = radius + 1 .. radius + _EXPLICIT_SHELLS of the
    number of integer vectors of sup-norm m times envelope(m - 1), where
    m - 1 <= |gamma + k|_inf on shell m for every gamma in [0,1)^d."""
    u = np.arange(radius, radius + _EXPLICIT_SHELLS, dtype=float)  # m - 1
    return float(np.sum(((2 * u + 3) ** dim - (2 * u + 1) ** dim) * envelope(u)))


class DecayBound:
    """Certified envelope for a nonnegative function of t = the norm of its
    argument: |fhat(xi)|^2 in frequency (``Generator.decay_bound``) or
    |<f, f(. + t)>| in space (``Generator.autocorrelation_decay``).

    Each kind bounds its own lattice-sum tail and integral tail."""

    def lattice_tail(self, lattice: LatticeSpec, radius: int) -> float:
        """Bound on sup_gamma sum_{|k|_inf > radius} E(dual(gamma+k)) / |det B|
        for gamma in [0,1)^d and the envelope E."""
        raise NoDecayInfo(f"unrecognized decay bound {type(self).__name__}")

    def tail_radius(self, dim: int, tol: float) -> float:
        """Radius R with the integral of the envelope over {sup-norm > R} at most tol."""
        raise NoDecayInfo(f"unrecognized decay bound {type(self).__name__}")


@dataclass(frozen=True)
class CompactFrequencySupport(DecayBound):
    """The function vanishes outside the sup-norm ball of the given radius."""

    radius: float
    peak: float = 1.0  # upper bound on the function inside the support

    def lattice_tail(self, lattice, radius):
        # argument of fhat is dual @ (gamma + k); it stays inside the support
        # ball only while |gamma + k|_inf <= radius * |B^T|_inf
        mapped = self.radius * operator_inf_norm(lattice.basis.T)
        if radius >= mapped:
            return 0.0
        # shells radius + 1 .. top telescope to the difference of two boxes
        top, d = math.floor(mapped) + 1, lattice.dim
        return ((2 * top + 1) ** d - (2 * radius + 1) ** d) * self.peak / lattice.det_abs

    def tail_radius(self, dim, tol):
        return self.radius


@dataclass(frozen=True)
class PolynomialDecay(DecayBound):
    """The function is at most min(peak, constant / t^order), t the sup-norm."""

    order: float
    constant: float
    peak: float = 1.0

    def _excess(self, dim: int) -> float:
        """order - dim, which must be positive for either tail to be finite."""
        if self.order <= dim:
            raise NoDecayInfo(f"polynomial decay order {self.order} too weak for dimension {dim}")
        return self.order - dim

    def lattice_tail(self, lattice, radius):
        d, p = lattice.dim, self.order
        excess = self._excess(d)
        c_mapped = self.constant * operator_inf_norm(lattice.basis.T) ** p
        total = _shell_sum(d, radius, lambda u: np.minimum(self.peak, c_mapped / u**p))
        j = radius + _EXPLICIT_SHELLS
        alpha = _SHELL_COEFF[d]
        total += alpha * c_mapped * (j ** (d - 1 - p) + j ** (d - p) / excess)
        return total / lattice.det_abs

    def tail_radius(self, dim, tol):
        check_positive("tail tolerance", tol)
        excess = self._excess(dim)
        # integral over {|xi|_inf > R} of C/t^p d xi = d 2^d C R^(d-p)/(p-d)
        c = dim * (2.0**dim) * self.constant / excess
        return max(1.0, (c / tol) ** (1.0 / excess))


def _gaussian_moment_sum(k: int, a: float, j: int) -> float:
    """Bound on sum_{integers u >= j} u^k exp(-a u^2).

    The summand is unimodal, so the sum is at most its integral from j plus
    its maximum on [j, inf); the integral follows from
    I_k = (j^(k-1) exp(-a j^2) + (k-1) I_(k-2)) / (2a).
    """
    e = math.exp(-a * j * j)
    integrals = [0.5 * math.sqrt(math.pi / a) * math.erfc(j * math.sqrt(a)), e / (2 * a)]
    for i in range(2, k + 1):
        integrals.append((j ** (i - 1) * e + (i - 1) * integrals[i - 2]) / (2 * a))
    top = max(j, math.sqrt(k / (2 * a)))
    return integrals[k] + top**k * math.exp(-a * top * top)


@dataclass(frozen=True)
class GaussianDecay(DecayBound):
    """The function is at most constant * exp(-rate * t^2), t the Euclidean
    norm (hence also for t the sup-norm)."""

    rate: float
    constant: float

    def lattice_tail(self, lattice, radius):
        # on shell m, m - 1 <= |gamma + k|_2 <= |B^T|_2 |dual(gamma + k)|_2
        d = lattice.dim
        a = self.rate / lattice.basis_norm**2
        total = _shell_sum(d, radius, lambda u: np.exp(-a * u**2))
        # past the explicit shells, (2u + 3)^d - (2u + 1)^d = sum_k coef_k u^k
        j = radius + _EXPLICIT_SHELLS
        total += sum(math.comb(d, k) * 2**k * (3 ** (d - k) - 1) * _gaussian_moment_sum(k, a, j)
                     for k in range(d))
        return self.constant * total / lattice.det_abs

    def tail_radius(self, dim, tol):
        check_positive("tail tolerance", tol)
        a = self.rate
        # {|xi|_inf > r} lies in the dim slabs |xi_i| > r, on each of which the
        # envelope integrates to constant (pi/a)^(dim/2) erfc(r sqrt a)
        scale = dim * self.constant * (math.pi / a) ** (dim / 2)
        r = max(1.0, math.sqrt(dim / a))
        while scale * math.erfc(r * math.sqrt(a)) > tol:
            r += 0.25
        return r


# ---------------------------------------------------------------------------
# generator base class and catalog
# ---------------------------------------------------------------------------


class Generator(ABC):
    """A function in L2(R^d) with an evaluable Fourier transform.

    Batch evaluation methods take an (m, d) array of points and return an
    (m,) complex array.
    """

    dim: int
    label: str = "generator"
    # f is known to lie in L1(R^d); boxes and sincs decay like 1/x and do not
    integrable: bool = False
    # fourier transforms a weighted Dirac comb (sampled data): inner products
    # with a partner are finite sums of the partner's spatial values, which the
    # comb's own cross_correlation takes
    comb: bool = False
    # ``axis_factors`` and ``norm_squared``, kept on first use: each is a pure
    # function of fields fixed at construction, so a race between threads only
    # repeats the work
    _factors: tuple[Generator, ...] | None = None
    _norm_squared: float | None = None

    @abstractmethod
    def fourier(self, xi: np.ndarray) -> np.ndarray:
        """Evaluate fhat at an (m, d) array of frequency points."""

    @abstractmethod
    def spatial(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f at an (m, d) array of spatial points."""

    def cross_correlation(self, other: Generator, t: np.ndarray) -> np.ndarray:
        """<other, f(. + t)> at an (m, d) array of spatial shifts t.

        Equals integral otherhat conj(fhat) exp(-2 pi i xi . t) d xi, taken by
        ``_frequency_integral`` to within 1e-12: d one-dimensional rules when
        both sides have ``axis_factors``, one d-dimensional mesh otherwise.  A
        comb partner takes the inner product itself: <other, f(. + t)> is the
        conjugate of <f, other(. - t)>.
        """
        t = np.asarray(t, dtype=float)
        if other.comb and not self.comb:
            return np.conj(other.cross_correlation(self, -t))
        return _frequency_integral(self, other, t, 1e-12)

    def autocorrelation(self, t: np.ndarray) -> np.ndarray:
        """<f, f(. + t)> at an (m, d) array of spatial shifts t.

        ``cross_correlation`` with f itself, where catalog kinds have closed
        forms; a subclass may override either.
        """
        return self.cross_correlation(self, t)

    def axis_factors(self) -> tuple[Generator, ...] | None:
        """The d one-dimensional generators f_a with fhat(xi) = prod_a
        fhat_a(xi_a), or None; a generator in d = 1 is its own factor.  With
        factors on both sides the frequency integral of ``cross_correlation``
        takes d one-dimensional rules, not a d-dimensional mesh.  A subclass
        that changes ``fourier`` must override this too."""
        if self._factors is None:
            self._factors = self._make_factors()
        return self._factors

    def _make_factors(self) -> tuple[Generator, ...] | None:
        """The factors ``axis_factors`` keeps, built on its first call."""
        return None

    def spatial_box(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Corners (lower, upper) of a closed box outside which the inverse
        transform of ``fourier`` vanishes, or None."""
        return None

    def indicator_box(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Corners (lower, upper) of the half-open box whose indicator |fhat|^2
        is exactly, or None; ``decay_bound`` must then vanish past it, as
        ``FrequencyBox``'s does.  It lets ``compute_phi`` tabulate phi as a
        step function and cuts the quadrature of ``cross_correlation``."""
        return None

    def autocorrelation_decay(self) -> DecayBound | None:
        """Certified envelope of |``autocorrelation``(t)| in the shift t, or None.

        The autocorrelations at lattice points are the Fourier coefficients
        of phi; an envelope bounds the ones a finite Fourier sum drops, which
        lets ``compute_phi`` sum that series instead of the lattice sum.
        """
        return None

    def norm_squared(self) -> float:
        """The squared L2 norm of f: the autocorrelation at shift zero."""
        if self._norm_squared is None:
            self._norm_squared = float(self.autocorrelation(np.zeros((1, self.dim)))[0].real)
        return self._norm_squared

    def decay_bound(self) -> DecayBound:
        raise NoDecayInfo(f"no decay information for {self.label}")


def _axis_tolerance(norms, tol: float) -> float:
    """One tolerance eps for the axis integrals I_a, |I_a| <= norms[a], that
    keeps their product within tol.  With errors |delta_a| <= eps_a the
    product telescopes, prod_a (I_a + delta_a) - prod_a I_a =
    sum_a delta_a prod_(b<a) I_b prod_(b>a) (I_b + delta_b), so its error is
    at most sum_a eps_a prod_(b!=a) (norms[b] + eps_b); eps <= 1 bounds each
    factor by norms[b] + 1."""
    return min(1.0, tol / sum(math.prod(n + 1.0 for b, n in enumerate(norms) if b != a)
                              for a in range(len(norms))))


def _frequency_integral(f: Generator, other: Generator, t: np.ndarray, tol: float) -> np.ndarray:
    """integral otherhat conj(fhat) exp(-2 pi i xi . t) d xi at an (m, d) array
    of shifts t, to within tol: no comb redirect and no closed form.

    When both sides have ``axis_factors`` (d >= 2) the integral is the product
    over the axes of the one-dimensional integrals of the factor pairs at t_a
    (Fubini), each taken at ``_axis_tolerance`` of the factor norms
    ||f_a|| ||o_a||, which bound the axis integrals by Cauchy-Schwarz.  One
    rule serves the axes of one factor pair, at the union of their values.

    Otherwise one quadrature on a node set sized for the largest shift plus,
    when both sides declare a spatial box, the sup-norm reach of
    box_other - box_f.  By Cauchy-Schwarz the part beyond R is at most
    sqrt(T_f(R) T_o(R)) for the tails T of |fhat|^2 and |otherhat|^2, and a
    tail is at most its squared norm, so R may be where both tails are below
    tol or one is below tol^2 over the other's squared norm.  For other = f
    that is where the one tail is below tol, and asking for the norm would
    recurse.
    """
    factors = f.axis_factors(), other.axis_factors()
    if f.dim > 1 and None not in factors:
        pairs = list(zip(*factors))
        eps = _axis_tolerance([math.sqrt(fa.norm_squared() * oa.norm_squared())
                               for fa, oa in pairs], tol)
        rules = {}
        for a, pair in enumerate(pairs):
            rules.setdefault(pair, []).append(a)
        out = np.ones(t.shape[0], dtype=complex)
        for (fa, oa), axes in rules.items():
            values, inverse = np.unique(t[:, axes], return_inverse=True)
            axis = _frequency_integral(fa, oa, values[:, None], eps)
            out *= np.prod(axis[inverse].reshape(-1, len(axes)), axis=1)
        return out
    d, ef = f.dim, f.decay_bound()
    radius = ef.tail_radius(d, tol) if other is f else min(
        max(ef.tail_radius(d, tol), (eo := other.decay_bound()).tail_radius(d, tol)),
        ef.tail_radius(d, tol**2 / other.norm_squared()),
        eo.tail_radius(d, tol**2 / f.norm_squared()))
    # a factor's indicator box cuts the cube, so its faces are panel edges
    lo, hi = np.full(f.dim, -radius), np.full(f.dim, radius)
    for box in (f.indicator_box(), other.indicator_box()):
        if box is not None:
            lo, hi = np.maximum(lo, box[0]), np.minimum(hi, box[1])
    if np.any(lo >= hi):
        return np.zeros(t.shape[0], dtype=complex)
    # the integrand is the transform of a function on box_other - box_f
    # shifted by t, so it oscillates with that box's sup-norm reach too
    osc = float(np.max(np.abs(t)))
    boxes = other.spatial_box(), f.spatial_box()
    if None not in boxes:
        osc += float(np.max(np.abs([boxes[0][0] - boxes[1][1], boxes[0][1] - boxes[1][0]])))

    def integrand(pts):
        fhat = f.fourier(pts)
        return np.abs(fhat) ** 2 if other is f else other.fourier(pts) * np.conj(fhat)

    return sum(grid_exp_sum(w * integrand(pts), axes, t) for axes, pts, w in grid_blocks(lo, hi, osc))


def _box_inverse(lower, upper, x: np.ndarray) -> np.ndarray:
    """Inverse transform of the indicator of the box [lower, upper) at the
    (m, d) points x: a per-axis modulated sinc."""
    width = upper - lower
    vals = width * np.sinc(width * x) * cis(-0.5 * (upper + lower) * x)
    return np.prod(vals, axis=-1)


class FrequencyBox(Generator):
    """fhat is the indicator of the half-open box [lower, upper) in frequency.

    The half-open convention makes lattice tilings exact: when translated
    copies of the box tile frequency space, exactly one copy contains each
    point, including points on shared faces.
    """

    def __init__(self, lower, upper):
        # copies, set read-only below, so the kept factors and norm cannot go stale
        lo = np.array(lower, dtype=float, ndmin=1)
        hi = np.array(upper, dtype=float, ndmin=1)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box corners must be 1-d arrays of equal length")
        check_finite("box lower corner", lo)
        check_finite("box upper corner", hi)
        if not np.all(lo < hi):
            raise ValueError("box corners must satisfy lower < upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lower = lo
        self.upper = hi
        self.dim = lo.size
        self.label = f"box{lo.tolist()}..{hi.tolist()}"

    def _make_factors(self):
        # one factor per distinct edge pair, so that equal axes share a rule
        if self.dim == 1:
            return (self,)
        edges = list(zip(self.lower.tolist(), self.upper.tolist()))
        made = {ab: FrequencyBox(*ab) for ab in set(edges)}
        return tuple(made[ab] for ab in edges)

    def fourier(self, xi):
        # one axis column at a time: a reduction over the short last axis of
        # an (m, d) array costs several times the comparisons
        xi = np.asarray(xi, dtype=float)
        inside = np.ones(xi.shape[:-1], dtype=bool)
        for i, (a, b) in enumerate(zip(self.lower.tolist(), self.upper.tolist())):
            inside &= (xi[..., i] >= a) & (xi[..., i] < b)
        return inside.astype(complex)

    def spatial(self, x):
        return _box_inverse(self.lower, self.upper, np.asarray(x, dtype=float))

    def cross_correlation(self, other, t):
        # two indicators multiply to the indicator of their intersection box,
        # whose inverse transform at -t is the integral
        if not isinstance(other, FrequencyBox):
            return super().cross_correlation(other, t)
        t = np.asarray(t, dtype=float)
        lo, hi = np.maximum(self.lower, other.lower), np.minimum(self.upper, other.upper)
        if np.any(lo >= hi):
            return np.zeros(t.shape[0], dtype=complex)
        return _box_inverse(lo, hi, -t)

    def indicator_box(self):
        return self.lower, self.upper

    def decay_bound(self):
        return CompactFrequencySupport(radius=float(np.max(np.abs([self.lower, self.upper]))))


class Sinc(FrequencyBox):
    """Tensor product of sin(pi x)/(pi x); fhat is the unit frequency box."""

    def __init__(self, dim: int = 1):
        check_integer("sinc dim", dim, 1)
        super().__init__(np.full(dim, -0.5), np.full(dim, 0.5))
        self.label = f"sinc(d={dim})"


def _bspline_values(order: int, x: np.ndarray) -> np.ndarray:
    """Centered cardinal B-spline of the given order, evaluated pointwise.

    order m is the polynomial degree: m = 0 is the box, m = 1 the hat.
    Uses the divided-difference form sum_j (-1)^j C(m+1, j) (x + (m+1)/2 - j)_+^m / m!
    at -|x| (the spline is even): on the left half only the small leading
    terms are active, so the sum does not cancel catastrophically.
    """
    m = order
    shift = 0.5 * (m + 1)
    y = -np.abs(np.asarray(x, dtype=float))
    acc = np.zeros_like(y)
    for j in range(m + 2):
        t = np.maximum(y + shift - j, 0.0)
        acc += ((-1) ** j) * math.comb(m + 1, j) * t**m
    return np.where(y > -shift, acc / math.factorial(m), 0.0)


class BSpline(Generator):
    """Tensor-product B-spline: (order+1)-fold convolution of the unit box.

    fhat(xi) = prod_i sinc(xi_i)^(order+1); spatial support is
    [-(order+1)/2, (order+1)/2]^d.
    """

    integrable = True

    def __init__(self, order: int, dim: int = 1):
        check_integer("B-spline order", order, 1)
        check_integer("B-spline dim", dim, 1)
        self.order = int(order)
        self.dim = int(dim)
        self.label = f"bspline{order}(d={dim})"

    def _make_factors(self):
        return (BSpline(self.order),) * self.dim if self.dim > 1 else (self,)

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.prod(np.sinc(xi) ** (self.order + 1), axis=-1).astype(complex)

    def spatial(self, x):
        x = np.asarray(x, dtype=float)
        return np.prod(_bspline_values(self.order, x), axis=-1).astype(complex)

    def cross_correlation(self, other, t):
        # b_m' * b_m(-.) = b_(m+m'+1) per axis (Unser, IEEE SPM 1999), and
        # b_(m+m'+1) is even
        if not isinstance(other, BSpline):
            return super().cross_correlation(other, t)
        order = self.order + other.order + 1
        return np.prod(_bspline_values(order, t), axis=-1).astype(complex)

    def spatial_box(self):
        half = np.full(self.dim, 0.5 * (self.order + 1))
        return -half, half

    def decay_bound(self):
        p = 2 * (self.order + 1)
        return PolynomialDecay(order=p, constant=math.pi**-p, peak=1.0)


class Gaussian(Generator):
    """f(x) = exp(-pi |x/width|^2); self-dual when width = 1."""

    integrable = True

    def __init__(self, width: float = 1.0, dim: int = 1):
        check_positive("Gaussian width", width)
        check_integer("Gaussian dim", dim, 1)
        self.width = float(width)
        self.dim = int(dim)
        self.label = f"gaussian(width={width},d={dim})"

    def _make_factors(self):
        return (Gaussian(self.width),) * self.dim if self.dim > 1 else (self,)

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        s = self.width
        return (s**self.dim) * np.exp(-np.pi * s**2 * np.sum(xi**2, axis=-1)).astype(
            complex
        )

    def spatial(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.pi * np.sum((x / self.width) ** 2, axis=-1)).astype(complex)

    def cross_correlation(self, other, t):
        # the transforms multiply to a Gaussian of squared width v = s^2 + s'^2:
        # <g_s', g_s(. + t)> = (s s' / sqrt v)^d exp(-pi |t|^2 / v)
        if not isinstance(other, Gaussian):
            return super().cross_correlation(other, t)
        s, r = self.width, other.width
        v = s * s + r * r
        return ((s * r / math.sqrt(v)) ** self.dim
                * np.exp(-np.pi * np.sum(np.square(t), axis=-1) / v)).astype(complex)

    def autocorrelation_decay(self):
        # |c(t)| = (s / sqrt 2)^d exp(-pi |t|^2 / (2 s^2))
        s = self.width
        return GaussianDecay(rate=math.pi / (2.0 * s**2),
                             constant=(s / math.sqrt(2.0)) ** self.dim)

    def decay_bound(self):
        s = self.width
        return GaussianDecay(rate=2.0 * np.pi * s**2, constant=s ** (2 * self.dim))


class SampledSpatial(Generator):
    """Compactly supported samples on a uniform spatial grid.

    The transform is the Riemann sum h^d * sum_j v_j exp(-2*pi*i*xi.x_j),
    the transform of the comb h^d sum_j v_j delta(x - x_j), and is periodic
    with period 1/h per axis.  A caller-declared ``support_radius``
    (frequency units) certifies the effective band; without it no lattice-sum
    truncation can be certified and tail queries fail.  Cross-correlations
    with itself or with a generator that is not sampled are finite sums over
    the samples and need no band.
    """

    integrable = True
    comb = True

    def __init__(self, values, origin, step: float, support_radius: float | None = None):
        # copies, read-only like a box's corners
        v = np.array(values, dtype=complex)
        check_finite("sample values", v)
        v.setflags(write=False)
        self.values = v
        self.dim = v.ndim
        self.origin = np.array(origin, dtype=float, ndmin=1)
        self.origin.setflags(write=False)
        if self.origin.shape != (self.dim,):
            raise ValueError("origin must have one coordinate per value axis")
        check_finite("sample origin", self.origin)
        check_positive("grid step", step)
        self.step = float(step)
        if support_radius is not None:
            check_positive("support_radius", support_radius)
        self.support_radius = None if support_radius is None else float(support_radius)
        if np.sum(np.abs(v) ** 2) * step**self.dim < 1e-14:
            raise ZeroGenerator("sampled generator is numerically zero")
        self.label = f"sampled(h={step},n={v.shape})"
        # sample axes for the transform sum, and the flat sample indices for overlaps
        self._axes = [o + self.step * np.arange(n) for o, n in zip(self.origin, v.shape)]
        self._index = mesh([np.arange(n, dtype=float) for n in v.shape])
        self._flat = v.ravel()

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = grid_exp_sum(self._flat, self._axes, xi.reshape(-1, self.dim))
        return (self.step**self.dim) * out.reshape(xi.shape[:-1])

    def _interpolate(self, rel):
        """The multilinear interpolant at (..., d) index coordinates (x - origin) / step."""
        rel, out_shape = rel.reshape(-1, self.dim), rel.shape[:-1]
        base = np.floor(rel).astype(int)
        frac = rel - base
        out = np.zeros(rel.shape[0], dtype=complex)
        shape = self.values.shape
        for corner in range(2**self.dim):
            offs = np.array([(corner >> i) & 1 for i in range(self.dim)])
            idx = base + offs
            ok = np.all((idx >= 0) & (idx < shape), axis=1)
            w = np.prod(np.where(offs, frac, 1.0 - frac), axis=1)
            out[ok] += w[ok] * self.values[tuple(idx[ok].T)]
        return out.reshape(out_shape)

    def spatial(self, x):
        return self._interpolate((np.asarray(x, dtype=float) - self.origin) / self.step)

    def cross_correlation(self, other, t):
        # <other, f(. + t)> = h^d sum_j conj(v_j) other(x_j - t) for a partner
        # whose spatial is the inverse of its fourier, or for f itself (the
        # discrete overlap: the Riemann transform is periodic, so its frequency
        # integral diverges); two different combs take the frequency quadrature
        if other.comb and other is not self:
            return super().cross_correlation(other, t)
        t = np.asarray(t, dtype=float)
        if other is self:  # at index coordinates j - t / h: exact at shifts on the grid
            grid, t, at = self._index, t / self.step, self._interpolate
        else:
            grid, at = self.origin + self.step * self._index, other.spatial
        out = np.empty(t.shape[0], dtype=complex)
        for sl in row_blocks(t.shape[0], self._flat.size):
            pts = (grid - t[sl, None, :]).reshape(-1, self.dim)
            out[sl] = at(pts).reshape(-1, self._flat.size) @ self._flat.conj()
        return out * self.step**self.dim

    def spatial_box(self):
        return self.origin, self.origin + self.step * (np.array(self.values.shape) - 1)

    def decay_bound(self):
        if self.support_radius is None:
            raise NoDecayInfo(
                "sampled data carries no frequency decay; declare support_radius"
            )
        peak = float((np.sum(np.abs(self.values)) * self.step**self.dim) ** 2)
        return CompactFrequencySupport(radius=self.support_radius, peak=peak)


def load_sampled_csv(path, support_radius: float | None = None) -> SampledSpatial:
    """Read samples from CSV rows ``x_1,...,x_d,re,im`` on a uniform grid.

    Points must lie on a common uniform grid (one step for all axes); holes
    are filled with zeros.  Raises ValueError when the grid is not uniform.
    """
    rows = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    if rows.shape[1] < 3:
        raise ValueError("CSV rows must be x_1,...,x_d,re,im")
    check_finite("CSV rows", rows)
    dim = rows.shape[1] - 2
    coords = rows[:, :dim]
    vals = rows[:, dim] + 1j * rows[:, dim + 1]

    steps = []
    for i in range(dim):
        gaps = np.diff(np.sort(coords[:, i]))  # 0 between repeated coordinates
        if np.any(gaps):
            steps.append(gaps[gaps != 0].min())
    if not steps:
        raise ValueError("degenerate sample set")
    h = float(min(steps))
    origin = coords.min(axis=0)
    rel = (coords - origin) / h
    idx = np.rint(rel).astype(int)
    if np.max(np.abs(rel - idx)) > 1e-6:
        raise ValueError("samples do not lie on a uniform grid")
    shape = tuple(idx.max(axis=0) + 1)
    dense = np.zeros(shape, dtype=complex)
    dense[tuple(idx.T)] = vals
    return SampledSpatial(dense, origin, h, support_radius=support_radius)


# ---------------------------------------------------------------------------
# certified truncation of lattice sums
# ---------------------------------------------------------------------------


def tail_bound(g: Generator, lattice: LatticeSpec, radius: int) -> float:
    """Certified bound on the lattice-sum tail beyond the given sup-norm radius.

    Bounds sup_gamma sum_{|k|_inf > radius} |fhat(dual(gamma+k))|^2 / |det B|
    for gamma in [0,1)^d through the generator's decay envelope.  Exactly zero
    when compact frequency support rules out every excluded term.
    """
    if radius < 1:
        raise ValueError("truncation radius must be >= 1")
    return g.decay_bound().lattice_tail(lattice, radius)
