"""Independent reference values for the benchmark's correctness checks.

Everything here is written from the mathematics (closed forms and short
lattice or Poisson sums) with numpy and the standard library only.  It never
calls into ``latticeframes``, so a wrong answer from the package cannot also
move the value it is checked against.

Conventions match the package: fhat(xi) = integral f(x) exp(-2 pi i xi.x) dx,
and phi(gamma) = (1/|det B|) sum_k |fhat(inv(B^T)(gamma + k))|^2 on the grid
j/N of [0, 1)^d.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

# minimum of the 1-d B-spline periodization on Z for degrees 1, 2, 3:
# sum_k sinc(gamma + k)^(2m+2) at gamma = 1/2
BSPLINE_LOWER = {1: 1.0 / 3.0, 2: 2.0 / 15.0, 3: 17.0 / 315.0}


def grid(dim: int, n: int) -> np.ndarray:
    """Flat (n^dim, dim) grid j/n in lexicographic order."""
    axes = np.meshgrid(*([np.arange(n) / n] * dim), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def bspline(degree: int, t) -> np.ndarray:
    """Centered cardinal B-spline of the given degree (truncated-power form)."""
    t = np.asarray(t, dtype=float)
    shift = 0.5 * (degree + 1)
    acc = np.zeros_like(t)
    for j in range(degree + 2):
        acc += (-1) ** j * math.comb(degree + 1, j) * np.maximum(t + shift - j, 0.0) ** degree
    return acc / math.factorial(degree)


def bspline_autocorrelation(degree: int, shifts: np.ndarray) -> np.ndarray:
    """<f, f(. - t)> for the tensor B-spline f at an (m, d) array of shifts t.

    The autocorrelation of b_m is b_(2m+1), so the tensor form is a product.
    """
    return np.prod(bspline(2 * degree + 1, shifts), axis=-1)


def bspline_phi(degree: int, basis, n: int) -> np.ndarray:
    """Grid values of phi for a tensor B-spline by the Poisson (dual) sum.

    phi(gamma) = sum_n c(B n) exp(2 pi i n.gamma) with c the autocorrelation,
    which is nonzero only for |(B n)_i| < degree + 1: a finite sum.
    """
    b = np.atleast_2d(np.asarray(basis, dtype=float))
    d = b.shape[0]
    reach = (degree + 1) * np.linalg.norm(np.linalg.inv(b), ord=np.inf)
    r = int(math.ceil(reach)) + 1
    ns = np.array(list(product(range(-r, r + 1), repeat=d)), dtype=float)
    c = bspline_autocorrelation(degree, ns @ b.T)
    keep = c != 0.0
    gam = grid(d, n)
    return np.real(np.exp(2j * np.pi * gam @ ns[keep].T) @ c[keep])


def gauss_phi_1d(gamma, width: float = 1.0, terms: int = 40) -> np.ndarray:
    """Theta sum sum_k width^2 exp(-2 pi width^2 (gamma + k)^2) per axis."""
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    ks = np.arange(-terms, terms + 1)
    return np.sum(width**2 * np.exp(-2 * np.pi * width**2 * (g[:, None] + ks) ** 2), axis=1)


def gauss_bounds(dim: int, width: float = 1.0) -> tuple[float, float]:
    """Essential (lower, upper) bounds of phi for the isotropic Gaussian on Z^d.

    phi is a product of 1-d theta sums, smallest at gamma = 1/2 and largest at
    0 on each axis.  A rotated lattice R Z^d gives the same values, because
    |fhat| is radial and inv(R^T) = R.
    """
    lo, hi = gauss_phi_1d([0.5, 0.0], width)
    return float(lo**dim), float(hi**dim)


def gauss_autocorrelation(width: float, shifts: np.ndarray) -> np.ndarray:
    """<f, f(. - t)> for f = exp(-pi |x/width|^2): prod (w/sqrt2) exp(-pi t^2/(2w^2))."""
    t = np.atleast_2d(shifts)
    return np.prod(width / math.sqrt(2.0) * np.exp(-np.pi * t**2 / (2 * width**2)), axis=-1)


def box_third_zero_fraction(dim: int, n: int) -> float:
    """Grid zero fraction of phi for the box [-1/3, 1/3)^d on Z^d.

    phi is the indicator of gamma mod 1 in [0, 1/3) u [2/3, 1) per axis, so
    the fraction tends to 1 - (2/3)^d; on the grid it is counted exactly.
    """
    inside = sum(1 for j in range(n) if 3 * j < n or 3 * j >= 2 * n)
    return 1.0 - (inside / n) ** dim


def sampled_transform(values, origin: float, step: float, xi) -> np.ndarray:
    """Riemann-sum transform step * sum_j v_j exp(-2 pi i xi x_j) of 1-d samples."""
    x = origin + step * np.arange(len(values))
    return step * (np.exp(-2j * np.pi * np.outer(np.ravel(xi), x)) @ np.asarray(values))


def sampled_phi(values, origin: float, step: float, support_radius: float,
                lattice: float, n: int) -> np.ndarray:
    """Grid phi of 1-d samples on the lattice a Z, summed over |k| <= K.

    The declared band |xi| <= support_radius certifies a zero tail from the
    first integer radius K covering support_radius * a.
    """
    k_max = max(1, math.ceil(support_radius * abs(lattice)))
    gam = np.arange(n) / n
    acc = np.zeros(n)
    for k in range(-k_max, k_max + 1):
        acc += np.abs(sampled_transform(values, origin, step, (gam + k) / lattice)) ** 2
    return acc / abs(lattice)


def hat_projection_residual(values, origin: float, step: float, n: int,
                            terms: int = 4096) -> float:
    """Squared distance of 1-d samples from the span of hat translates on Z.

    residual = ||psi||^2 - mean_gamma |sum_k psihat sinc^2 (gamma + k)|^2 / phi
    with phi = (2 + cos 2 pi gamma) / 3.  psihat has period 1/step, so the
    cross sum groups k by residue and needs one transform per residue.
    """
    period = int(round(1.0 / step))
    gam = np.arange(n) / n
    ks = np.arange(-terms, terms + 1)
    cross = np.zeros(n, dtype=complex)
    for r in range(period):
        kr = ks[(ks - r) % period == 0]
        weight = np.sum(np.sinc(gam[None, :] + kr[:, None]) ** 2, axis=0)
        cross += sampled_transform(values, origin, step, gam + r) * weight
    phi = (2.0 + np.cos(2 * np.pi * gam)) / 3.0
    norm = step * float(np.sum(np.abs(np.asarray(values)) ** 2))
    return norm - float(np.mean(np.abs(cross) ** 2 / phi))


def gauss_hat_inner(k: int) -> float:
    """integral exp(-pi x^2) hat(x - k) dx in closed form (erf and exp)."""
    def g(x):  # antiderivative of exp(-pi x^2)
        return 0.5 * math.erf(math.sqrt(math.pi) * x)

    def h(x):  # antiderivative of x exp(-pi x^2)
        return -math.exp(-math.pi * x * x) / (2 * math.pi)

    left = (1 - k) * (g(k) - g(k - 1)) + (h(k) - h(k - 1))
    right = (1 + k) * (g(k + 1) - g(k)) - (h(k + 1) - h(k))
    return left + right


def sinc_gauss_residual(width: float = 1.0) -> float:
    """||g||^2 minus the part of |ghat|^2 on [-1/2, 1/2): the sinc-span residual."""
    s = width
    total = s / math.sqrt(2.0)
    inside = s / math.sqrt(2.0) * math.erf(math.sqrt(2 * math.pi) * s * 0.5)
    return total - inside
