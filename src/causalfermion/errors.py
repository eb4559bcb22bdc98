"""Exception types shared across the package."""


class CausalFermionError(Exception):
    """Base class for all package errors."""


class ConfigError(CausalFermionError):
    """Malformed or unknown experiment configuration."""


class InvariantFailure(CausalFermionError):
    """A runtime invariant check failed during an experiment."""


class GuardViolation(CausalFermionError):
    """An anti-wraparound or region-of-influence guard was violated."""


class WrongRepresentation(CausalFermionError, ValueError):
    """Operation applied to a field in the wrong representation."""


class BandExceeded(GuardViolation):
    """Dilation would push momentum content past the Nyquist band."""


class SupportExceedsGuard(GuardViolation):
    """Constructed state does not leave the requested evolution margin."""


class NotTimelike(CausalFermionError, ValueError):
    """Four-vector is not timelike."""


class NotLightlike(CausalFermionError, ValueError):
    """Four-vector is not lightlike."""


class NotUnimodular(CausalFermionError, ValueError):
    """Matrix is not in SL(2, C)."""


class ZeroMomentum(CausalFermionError, ValueError):
    """Momentum vector vanishes where a direction is required."""


class ZeroMomentumMassless(ZeroMomentum):
    """Massless energy projector is singular at p = 0."""


class AllMassBelowTolerance(CausalFermionError):
    """Support-edge search found no mass above the tolerance."""


class InsufficientSamples(CausalFermionError):
    """Fit requested with too few samples to cover both slopes."""


class CaseMismatch(CausalFermionError, ValueError):
    """Tent-construction parameters are inconsistent with the chosen case."""


class NoLateChangeSeed(CausalFermionError):
    """Seed state has no positive change time to truncate."""


class NotPositiveEnergy(CausalFermionError):
    """State is not (numerically) in the positive-energy subspace."""


class NullDilationLimit(CausalFermionError):
    """State has vanishing dilation-limit projection."""


class DomainViolation(CausalFermionError):
    """Momentum support touches zero or the band edge."""


class DegenerateState(CausalFermionError):
    """State is annihilated by the localization operator."""


class NotInRange(CausalFermionError):
    """State is not in the required spectral subspace."""


class NotEvenlySpaced(CausalFermionError, ValueError):
    """Output points of a type-1 transform are not of the form x_0 + j delta."""


class OriginSingular(CausalFermionError, ValueError):
    """Closed-form evaluation requested at the excluded origin."""
