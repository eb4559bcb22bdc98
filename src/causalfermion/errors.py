"""Exception types that a caller, an exit code or the benchmark tells apart.

``cli.main`` maps ConfigError, InvariantFailure and GuardViolation to exit
codes 2, 1 and 3; ``cli`` catches NoLateChangeSeed; the benchmark's escape probes name
DomainViolation and OriginSingular.  Every other bad input raises ValueError
with a message that names the check.
"""


class ConfigError(Exception):
    """Malformed or unknown experiment configuration."""


class InvariantFailure(Exception):
    """A runtime invariant check failed during an experiment."""


class GuardViolation(Exception):
    """An anti-wraparound or region-of-influence guard was violated."""


class NoLateChangeSeed(Exception):
    """Seed state has no positive change time to truncate."""


class DomainViolation(Exception):
    """Momentum support touches zero or the band edge."""


class OriginSingular(ValueError):
    """Closed-form evaluation requested at the excluded origin."""
