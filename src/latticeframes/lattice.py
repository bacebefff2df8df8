"""Translation lattices B·Z^d, their duals, integer boxes and argument checks.

A lattice is described by an invertible d x d matrix ``basis``; translates
live on ``basis @ k`` for integer vectors k.  The dual lattice has basis
``inv(basis.T)``, so lattice and dual vectors pair to integers.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from ._integrate import mesh
from .errors import NonFiniteInput, SingularMatrix, UnsupportedDimension

MAX_DIM = 3

# Grids sample at dual-scaled points; past this conditioning the certified
# truncation bounds become meaningless.
CONDITION_LIMIT = 1e8


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """An invertible sampling matrix together with derived geometry.

    Attributes
    ----------
    dim : spatial dimension d (1..3)
    basis : d x d matrix whose integer combinations form the lattice
    det_abs : |det basis|, the volume of the fundamental cell
    dual_basis : inv(basis.T); generates the dual lattice
    basis_norm : largest singular value of basis, computed on first use
    """

    dim: int
    basis: np.ndarray
    det_abs: float
    dual_basis: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)
        self.dual_basis.setflags(write=False)

    @functools.cached_property
    def basis_norm(self) -> float:
        return float(np.linalg.norm(self.basis.T, 2))

    def dual(self) -> LatticeSpec:
        """The dual lattice inv(basis.T) Z^d; its dual is this lattice."""
        return LatticeSpec(dim=self.dim, basis=self.dual_basis, det_abs=1.0 / self.det_abs,
                           dual_basis=self.basis)


def new_lattice(matrix) -> LatticeSpec:
    """Build a :class:`LatticeSpec` from a square matrix.

    Raises
    ------
    UnsupportedDimension
        for d > 3 (grid sizes grow as N^d and are not worth supporting).
    SingularMatrix
        when |det| falls below 1e-10 * (max |entry|)^d or the condition
        number exceeds ``CONDITION_LIMIT``.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"lattice matrix must be square, got shape {a.shape}")
    d = a.shape[0]
    if d < 1 or d > MAX_DIM:
        raise UnsupportedDimension(f"dimension {d} not supported (1..{MAX_DIM})")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("lattice matrix has non-finite entries")

    det = np.linalg.det(a)
    scale = np.max(np.abs(a))
    if scale == 0.0 or abs(det) < 1e-10 * scale**d:
        raise SingularMatrix(f"matrix is numerically singular (det={det:.3e})")
    cond = np.linalg.cond(a)
    if cond > CONDITION_LIMIT:
        raise SingularMatrix(
            f"matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )

    dual = np.linalg.inv(a.T)
    return LatticeSpec(dim=d, basis=a.copy(), det_abs=abs(det), dual_basis=dual)


def check_dims(lattice: LatticeSpec, *generators):
    """Raise ValueError unless every generator has the lattice's dimension."""
    for g in generators:
        if g.dim != lattice.dim:
            raise ValueError(f"generator {g.label} has dimension {g.dim} but the "
                             f"lattice has dimension {lattice.dim}")


def check_positive(name: str, value: float):
    """Raise ValueError naming the value unless it is finite and positive."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_finite(name: str, values):
    """Raise ValueError naming the values unless every one is finite."""
    bad = np.asarray(values)[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")


def is_integer(value) -> bool:
    """True for a value of any integral type but bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(name: str, value, low: int):
    """Raise ValueError naming the value unless it is an integer >= low."""
    if not is_integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_table(lattice: LatticeSpec, table):
    """Raise ValueError unless the periodization table is on this lattice."""
    if not np.array_equal(table.lattice.basis, lattice.basis):
        raise ValueError(f"table lattice {table.lattice.basis.tolist()} differs from "
                         f"lattice {lattice.basis.tolist()}")


def integer_box(dim: int, radius: int) -> np.ndarray:
    """(n, dim) array of all integer vectors with sup-norm <= radius, rows
    lexicographically ascending."""
    check_integer("radius", radius, 0)
    return mesh([np.arange(-radius, radius + 1)] * dim)


def operator_inf_norm(mat: np.ndarray) -> float:
    """Induced sup-norm of a matrix (max absolute row sum)."""
    return float(np.max(np.sum(np.abs(mat), axis=1)))
