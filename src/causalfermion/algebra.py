"""Exact 2x2 / 4x4 spinor-matrix machinery.

Conventions (natural units, c = hbar = 1):
  * Pauli matrices sigma_1..3, sigma_0 = I2.
  * Weyl representation of the Dirac matrices:
        beta = [[0, I2], [I2, 0]],  alpha_k = [[sigma_k, 0], [0, -sigma_k]].
  * A boost with rapidity rho along e3 is represented in SL(2,C) by
    A_rho = exp(rho/2 sigma_3) = diag(exp(rho/2), exp(-rho/2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-12

I2 = np.eye(2, dtype=complex)

SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

BETA = np.block([[np.zeros((2, 2)), I2], [I2, np.zeros((2, 2))]]).astype(complex)
ALPHA = np.array(
    [np.block([[SIGMA[k], np.zeros((2, 2))], [np.zeros((2, 2)), -SIGMA[k]]]) for k in range(3)]
).astype(complex)


def _unimodular(a) -> np.ndarray:
    """a as a complex matrix of SL(2,C); ValueError unless det a = 1 to UNITARY_TOL."""
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):  # checked first: det of a non-finite matrix warns before it fails
        raise ValueError(f"A = {a.tolist()} has a non-finite entry")
    if not abs(np.linalg.det(a) - 1.0) <= UNITARY_TOL:
        raise ValueError(f"det A = {np.linalg.det(a)}")
    return a


def sinc(w):
    """sin(w)/w with a short even series below |w| = 1e-4."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-4
    safe = np.where(small, 1.0, w)
    out = np.where(small, 1.0 - w * w / 6.0 + w**4 / 120.0, np.sin(safe) / safe)
    return out if out.ndim else float(out)


def energy(p, m: float) -> float:
    """eps(p) = sqrt(|p|^2 + m^2) for a 3-vector p (ValueError for any other shape)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"energy takes a 3-vector p, got shape {p.shape}")
    return float(np.sqrt(np.sum(p * p) + m * m))


def boost_matrix(rho: float) -> np.ndarray:
    """A_rho = exp(rho/2 sigma_3) = diag(e^{rho/2}, e^{-rho/2}), the boost along e3.

    Built from the two exponentials, so det A = 1 to rounding at any rho
    (cosh^2 - sinh^2 of rho/2 would cancel away 1e-12 by rho = 10).
    """
    return np.diag([np.exp(rho / 2.0), np.exp(-rho / 2.0)]).astype(complex)


class _System:
    """h(p) = c sum_k M_k p_k + m B and pi^eta(p) from the facts a system declares: its coupling c,
    per-axis momentum matrices M_k and mass matrix B (None for Weyl).  ``dynamics.h_apply`` (grid)
    and ``pol.RadialSpinorState.apply_h`` (radial) read the same facts."""

    def hamiltonian(self, p) -> np.ndarray:
        """h(p) at a 3-momentum p; Hermitian, h(p)^2 = eps(p)^2 I."""
        p = np.asarray(p, dtype=float)
        h = self.coupling * np.einsum("k,kij->ij", p, self.momentum_matrices)
        if self.mass_matrix is not None:
            h += self.m * self.mass_matrix
        return h

    def projector(self, p, eta: int) -> np.ndarray:
        """Energy projector pi^eta(p) = (I + (eta/eps) h(p)) / 2 (for Weyl, pi^{chi eta}; dilation invariant)."""
        eps = energy(p, self.m)
        if eps == 0.0:
            raise ValueError("energy projector singular at p = 0 for m = 0")
        return 0.5 * (np.eye(self.components) + (eta / eps) * self.hamiltonian(p))


@dataclass(frozen=True)
class Dirac(_System):
    """Dirac system of mass m > 0 (m = 0 allowed; it splits into the two Weyl systems): h(p) = alpha . p + beta m."""

    m: float = 1.0

    components = 4
    coupling = 1
    momentum_matrices = ALPHA
    mass_matrix = BETA

    def __post_init__(self):
        if not self.m >= 0:  # a NaN mass fails too
            raise ValueError("mass must be >= 0")

    def boost_rep(self, a: np.ndarray) -> np.ndarray:
        """s(A) = diag(A, A^{*-1}) on Dirac spinors, for A in SL(2,C)."""
        a = _unimodular(a)
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = a
        out[2:, 2:] = np.linalg.inv(a.conj().T)
        return out

    def time_reversal(self) -> np.ndarray:
        """Matrix omega with T psi = omega conj(psi): -diag(sigma2, sigma2)."""
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = out[2:, 2:] = -SIGMA[1]
        return out


@dataclass(frozen=True)
class Weyl(_System):
    """Weyl system of chirality chi in {+1, -1}: h^chi(p) = chi sigma . p."""

    chi: int = +1

    components = 2
    m = 0.0
    momentum_matrices = SIGMA
    mass_matrix = None

    def __post_init__(self):
        if self.chi not in (1, -1):
            raise ValueError(f"chirality must be +1 or -1, got {self.chi!r}")

    @property
    def coupling(self) -> int:
        return self.chi

    def boost_rep(self, a: np.ndarray) -> np.ndarray:
        """s^+(A) = A and s^-(A) = A^{*-1} on Weyl spinors, for A in SL(2,C)."""
        a = _unimodular(a)
        return a.copy() if self.chi == +1 else np.linalg.inv(a.conj().T)

    def time_reversal(self) -> np.ndarray:
        """Matrix omega with T psi = omega conj(psi): -sigma2."""
        return -SIGMA[1]
