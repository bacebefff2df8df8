"""Exception types shared across the package."""


class LatticeFramesError(Exception):
    """Base class for all package-specific failures."""


class SingularMatrix(LatticeFramesError):
    """Lattice matrix is singular or too ill-conditioned to trust."""


class UnsupportedDimension(LatticeFramesError):
    """Requested dimension is outside the supported range 1..3."""


class NonFiniteInput(LatticeFramesError):
    """An input coordinate, or a generator's transform on the grid or its lattice
    coefficients, is NaN or infinite."""


class ZeroGenerator(LatticeFramesError):
    """Generator has (numerically) zero L2 norm."""


class NoDecayInfo(LatticeFramesError):
    """No certified decay information is available for the generator."""


class TailNotAchievable(LatticeFramesError):
    """No truncation radius under the cap meets the requested tail."""


class EpsilonTooSmall(LatticeFramesError):
    """Zero-detection threshold does not dominate the truncation tail."""


class AliasRisk(LatticeFramesError):
    """Requested Fourier coefficient order is too close to the grid Nyquist."""


class TooLarge(LatticeFramesError):
    """Requested dense matrix exceeds the configured size cap."""


class ConvergenceFailure(LatticeFramesError):
    """Eigenvalue computation failed to converge."""


class NotCompactlySupported(LatticeFramesError):
    """Operation requires a compactly supported generator."""


class DegenerateSpan(LatticeFramesError):
    """The periodized power spectrum vanishes on the whole grid."""
