"""Verdicts for translate systems from the essential range of the periodization.

A table becomes one ``SpectralBounds`` record, and one decision tree reads it,
following the characterization by the essential range of the periodized power
spectrum phi over the unit cell:

* bounded above          -> Bessel (always true on a finite grid; a ceiling
                            guards against runaway tables)
* bounded below off the zero set -> frame sequence
* zero set null as well  -> Riesz sequence
* bounds both ~1         -> Parseval flavor of the above two

A record is certified or grid.  Step tables (boxes and sincs) carry their
exact essential range, which gives certified bounds and zero set; the zero-set
fraction stays a grid estimate.  Other tables give grid estimates, not
certificates, and carry their truncation tail so thresholds can dominate it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotCompactlySupported
from .generators import Generator
from .lattice import LatticeSpec, check_positive, check_table
from .periodization import PeriodizationTable, _require_finite, grid_gamma, perturbed_phi

DEFAULT_CLASS_TOL = 1e-6
# below this fraction of the sup, an off-zero infimum is treated as
# decay-to-zero rather than a genuine positive lower bound
FRAME_FLOOR_FRAC = 1e-4
NOT_BESSEL_CEILING = 1e12


class Verdict(str, enum.Enum):
    NOT_BESSEL = "NotBessel"
    BESSEL_NOT_FRAME = "BesselNotFrameSeq"
    FRAME_SEQUENCE = "FrameSequence"
    RIESZ_SEQUENCE = "RieszSequence"
    PARSEVAL_FRAME_SEQUENCE = "ParsevalFrameSequence"
    ORTHONORMAL_SEQUENCE = "OrthonormalSequence"


@dataclass(frozen=True)
class SpectralBounds:
    """Essential bounds of a periodization table: exact ones from its essential
    range when ``certified``, else grid estimates."""

    sup_all: float
    inf_all: float
    inf_offzero: float
    zero_fraction: float
    eps_zero: float
    certified: bool = False


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    lower: float | None
    upper: float | None
    evidence: dict


@dataclass(frozen=True)
class RieszCheck:
    is_riesz: bool
    witness_gamma: np.ndarray
    min_value: float


@dataclass(frozen=True)
class PerturbationCheck:
    classification: Classification
    frame_for_original: bool
    inf_on_original_support: float


def _bounds_from_values(values: np.ndarray, tail: float, eps_zero: float) -> SpectralBounds:
    sup_all = float(values.max()) + tail
    inf_all = float(values.min())
    off = values >= eps_zero  # a masked min, not a copy of the off-zero values
    inf_offzero = float(values.min(where=off, initial=np.inf)) if off.any() else 0.0
    zero_fraction = float(np.count_nonzero(values < eps_zero)) / values.size
    return SpectralBounds(
        sup_all=sup_all,
        inf_all=inf_all,
        inf_offzero=inf_offzero,
        zero_fraction=zero_fraction,
        eps_zero=eps_zero,
    )


def spectral_bounds(table: PeriodizationTable, eps_zero: float | None = None) -> SpectralBounds:
    """Bounds of a table, zeros below ``table.zero_threshold(eps_zero)``: the
    largest, least and least positive value of its ``essential_range``
    (certified), or else the grid extrema and off-zero minimum; the zero-set
    fraction is the grid count either way."""
    bounds = _bounds_from_values(table.values, table.tail, table.zero_threshold(eps_zero))
    exact = table.essential_range
    if exact is None:
        return bounds
    return replace(bounds, sup_all=exact[-1], inf_all=exact[0],
                   inf_offzero=min((v for v in exact if v > 0.0), default=0.0), certified=True)


def classify_translates(bounds: SpectralBounds,
                        class_tol: float = DEFAULT_CLASS_TOL) -> Classification:
    """Decision tree over spectral bounds.

    The sup always exists, so the system is Bessel unless the table blew past
    the fixed ``NOT_BESSEL_CEILING``.  A positive infimum off the zero set
    makes a frame sequence; a null zero set upgrades it to a Riesz sequence;
    bounds within ``class_tol`` of one mark the Parseval / orthonormal cases.
    Certified bounds are exact.  On grid bounds the zero set is the grid points
    below ``eps_zero``, and an infimum under ``FRAME_FLOOR_FRAC`` of the sup is decay.
    """
    check_positive("class_tol", class_tol)
    evidence = {
        "sup_all": bounds.sup_all,
        "inf_all": bounds.inf_all,
        "inf_offzero": bounds.inf_offzero,
        "zero_fraction": bounds.zero_fraction,
        "eps_zero": bounds.eps_zero,
        "class_tol": class_tol,
    }
    if bounds.certified:
        evidence["certified"] = True
        frame_floor, no_zero_set = 0.0, bounds.inf_all > 0.0
    else:
        frame_floor, no_zero_set = FRAME_FLOOR_FRAC, bounds.zero_fraction == 0.0
    if not np.isfinite(bounds.sup_all) or bounds.sup_all > NOT_BESSEL_CEILING:
        return Classification(Verdict.NOT_BESSEL, None, None, evidence)

    upper = bounds.sup_all
    degenerate = bounds.sup_all <= 0.0
    if degenerate or bounds.inf_offzero < frame_floor * bounds.sup_all:
        return Classification(Verdict.BESSEL_NOT_FRAME, None, upper, evidence)

    lower = bounds.inf_offzero
    parseval = abs(lower - 1.0) <= class_tol and abs(upper - 1.0) <= class_tol
    if no_zero_set and parseval:
        verdict = Verdict.ORTHONORMAL_SEQUENCE
    elif no_zero_set:
        verdict = Verdict.RIESZ_SEQUENCE
    elif parseval:
        verdict = Verdict.PARSEVAL_FRAME_SEQUENCE
    else:
        verdict = Verdict.FRAME_SEQUENCE
    return Classification(verdict, lower, upper, evidence)


def classify_table(table: PeriodizationTable,
                   eps_zero: float | None = None,
                   class_tol: float = DEFAULT_CLASS_TOL) -> Classification:
    """Convenience pipeline: ``spectral_bounds`` then ``classify_translates``,
    with the table's metadata in the evidence."""
    cls = classify_translates(spectral_bounds(table, eps_zero), class_tol)
    cls.evidence.update(
        grid_res=table.grid_res,
        trunc_radius=table.trunc_radius,
        tail=table.tail,
        generator=table.generator_tag,
    )
    return cls


def classify_weighted_exponentials(psi_samples, eps_zero: float,
                                   class_tol: float = DEFAULT_CLASS_TOL) -> Classification:
    """Classify a weighted exponential system from samples of its weight.

    The system behaves exactly like a translate system whose periodization is
    |psi|^2, so the same decision tree applies to the squared magnitudes.
    Reported bounds are on |psi|^2.
    """
    check_positive("eps_zero", eps_zero)
    samples = np.asarray(psi_samples)
    if samples.size == 0:
        raise ValueError("sample list must be nonempty")
    _require_finite(samples, "weight", "samples")
    power = np.abs(samples.ravel()) ** 2
    bounds = _bounds_from_values(power, 0.0, eps_zero)
    return classify_translates(bounds, class_tol)


def compact_support_riesz_check(g: Generator, lattice: LatticeSpec,
                                table: PeriodizationTable,
                                eps_zero: float | None = None) -> RieszCheck:
    """Riesz test for generators with a ``spatial_box``: does phi vanish anywhere?

    Compact spatial support makes the periodization continuous (it has
    finitely many Fourier coefficients), so ``is_riesz`` reads a grid minimum
    above the zero threshold as positivity everywhere.  That is a grid
    estimate, not a proof: phi may dip below the threshold between grid
    points.  The minimum and the threshold are ``spectral_bounds``'s; the
    witness is the argmin grid point.
    """
    if g.spatial_box() is None:
        raise NotCompactlySupported(
            f"{g.label} is not compactly supported in space"
        )
    check_table(lattice, table)
    bounds = spectral_bounds(table, eps_zero)
    witness = grid_gamma(table.dim, table.grid_res)[int(np.argmin(table.values))]
    return RieszCheck(is_riesz=bool(bounds.inf_all >= bounds.eps_zero),
                      witness_gamma=witness, min_value=bounds.inf_all)


def perturbation_frame_check(table: PeriodizationTable, n,
                             eps_zero: float | None = None,
                             class_tol: float = DEFAULT_CLASS_TOL) -> PerturbationCheck:
    """Classify the two-translate perturbation and test frame-ness for the
    original span.

    The perturbed system spans a subspace of the original one; it stays a
    frame for the original span iff the perturbed periodization stays bounded
    away from zero on the off-zero set of the original table (the perturbation
    factor's zeros must avoid the original support).
    """
    eps_zero = table.zero_threshold(eps_zero)
    pert = perturbed_phi(table, n)
    classification = classify_table(pert, class_tol=class_tol)

    mask = table.values >= eps_zero
    if np.any(mask):
        inf_sup = float(pert.values[mask].min())
    else:
        inf_sup = 0.0
    return PerturbationCheck(
        classification=classification,
        frame_for_original=bool(inf_sup > eps_zero),
        inf_on_original_support=inf_sup,
    )
