"""Numerical laboratory for causal Dirac and Weyl localization.

Modules
-------
algebra     exact 2x2/4x4 spinor matrices: Hamiltonians, projectors, boost
            representations, time reversal
field       grid-sampled spinor fields, Fourier duality, masks, constructors
dynamics    the grid operators h(p), eps(p), pi^eta(p); spectral causal and
            Newton-Wigner propagators, boosts, time reversal
frontier    support edges, tent-law fits, late-change states, contraction scans
weylradial  closed-form radial Weyl evolution and its Fourier-sine oracle
pol         positive-operator localization, cascades, point-localized sequences
causalgeo   lightcone interval algebra, diamonds, timelike-line Monte Carlo
cli         configuration-driven experiment runner with CSV output
"""

from . import algebra, causalgeo, dynamics, errors, field, frontier, pol, weylradial

__version__ = "0.1.0"

__all__ = [
    "algebra",
    "causalgeo",
    "dynamics",
    "errors",
    "field",
    "frontier",
    "pol",
    "weylradial",
    "__version__",
]
