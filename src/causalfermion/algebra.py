"""Exact 2x2 / 4x4 spinor-matrix machinery.

Conventions (natural units, c = hbar = 1):
  * Pauli matrices sigma_1..3, sigma_0 = I2.
  * Weyl representation of the Dirac matrices:
        beta = [[0, I2], [I2, 0]],  alpha_k = [[sigma_k, 0], [0, -sigma_k]].
  * Minkowski product a.b = a0 b0 - a1 b1 - a2 b2 - a3 b3 on length-4 arrays.
  * A boost with rapidity rho along e3 is represented in SL(2,C) by
    A_rho = exp(rho/2 sigma_3) = diag(exp(rho/2), exp(-rho/2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-12
#: |p.p| allowed for a lightlike p, relative to the Euclidean p . p
LIGHTLIKE_TOL = 1e-9

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
    if abs(np.linalg.det(a) - 1.0) > UNITARY_TOL:
        raise ValueError(f"det A = {np.linalg.det(a)}")
    return a


def is_unitary(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= UNITARY_TOL)


def minkowski_square(k: np.ndarray) -> float:
    k = np.asarray(k, dtype=float)
    return float(k[0] ** 2 - k[1] ** 2 - k[2] ** 2 - k[3] ** 2)


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


def canonical_cross_section(k) -> np.ndarray:
    """Positive 2x2 matrix Q(k) with Q(k).(eta m,0,0,0) = k for timelike k.

    Q(k) = sqrt(m / (2(m+|k0|))) (I2 + (eta/m) sum_j k_j sigma_j), sigma_0 = I2,
    with m = sqrt(k.k) and eta = sgn(k0).  Q(k)^2 = (eta/m) sum_j k_j sigma_j.
    """
    k = np.asarray(k, dtype=float)
    ksq = minkowski_square(k)
    if ksq <= 0.0:
        raise ValueError(f"k.k = {ksq} is not positive")
    m = np.sqrt(ksq)
    eta = 1.0 if k[0] >= 0 else -1.0
    ksig = k[0] * I2 + np.einsum("k,kij->ij", k[1:], SIGMA)
    return np.sqrt(m / (2.0 * (m + abs(k[0])))) * (I2 + (eta / m) * ksig)


def helicity_cross_section(p) -> np.ndarray:
    """B(p) in SU(2) with |p| B(p).e3 = p; B(lambda p) = B(p) for lambda > 0.

    Entries a_pm = sqrt((|p| +- p3) / (2|p|)) and b = (p1 + i p2)/|p1 + i p2|;
    for p on the positive/negative 3-axis B is I2 / -i sigma_2.
    """
    p = np.asarray(p, dtype=float)
    ap = float(np.linalg.norm(p))
    if ap == 0.0:
        raise ValueError("helicity cross section undefined at p = 0")
    if p[0] == 0.0 and p[1] == 0.0:
        return I2.copy() if p[2] > 0 else (-1j * SIGMA[1])
    a_plus = np.sqrt((ap + p[2]) / (2.0 * ap))
    a_minus = np.sqrt((ap - p[2]) / (2.0 * ap))
    b = (p[0] + 1j * p[1]) / abs(p[0] + 1j * p[1])
    return np.array([[a_plus, -np.conj(b) * a_minus], [b * a_minus, a_plus]], dtype=complex)


def boost_matrix(rho: float) -> np.ndarray:
    """A_rho = exp(rho/2 sigma_3) = diag(e^{rho/2}, e^{-rho/2}), the boost along e3.

    Built from the two exponentials, so det A = 1 to rounding at any rho
    (cosh^2 - sinh^2 of rho/2 would cancel away 1e-12 by rho = 10).
    """
    return np.diag([np.exp(rho / 2.0), np.exp(-rho / 2.0)]).astype(complex)


def lorentz_action(a: np.ndarray, k) -> np.ndarray:
    """Four-vector action A.k defined by A (sum k_mu sigma_mu) A^* = sum (A.k)_mu sigma_mu."""
    k = np.asarray(k, dtype=float)
    x = k[0] * I2 + np.einsum("k,kij->ij", k[1:], SIGMA)
    y = a @ x @ a.conj().T
    out = np.empty(4)
    out[0] = 0.5 * np.real(np.trace(y))
    for j in range(3):
        out[j + 1] = 0.5 * np.real(np.trace(SIGMA[j] @ y))
    return out


def polar_decompose_sl2(a: np.ndarray):
    """Split A in SL(2,C) as B' A_rho B with B', B in SU(2) and A_rho = diag(e^{rho/2}, e^{-rho/2}).

    Obtained from the eigen-decomposition of A^* A; rho = 2 log of the larger
    singular value.  rho = 0 (A already unitary) short-circuits to (A, 0, I2).
    """
    a = _unimodular(a)
    w, v = np.linalg.eigh(a.conj().T @ a)
    # eigh sorts ascending; want the larger singular value first
    w = w[::-1]
    v = v[:, ::-1]
    rho = float(np.log(w[0]))  # w[0] = e^{rho}, the square of the larger singular value
    if abs(rho) <= UNITARY_TOL:
        return a.copy(), 0.0, I2.copy()
    det = np.linalg.det(v)
    v = v @ np.diag([1.0, 1.0 / det])
    b = v.conj().T
    b_prime = a @ np.linalg.inv(boost_matrix(rho) @ b)
    return b_prime, rho, b


def wigner_rotation_massive(p, m: float, eta: int, rho: float) -> np.ndarray:
    """Wigner rotation R(p^eta, A_rho) for the boost A_rho along e3, m > 0.

    R = d(eta p)^{-1/2} [[g(m+eps) - d eta p3, d eta (p1 - i p2)],
                         [-d eta (p1 + i p2), g(m+eps) - d eta p3]]
    with g = cosh(rho/2), d = sinh(rho/2), and the normalizer
    d(p) = (m+eps)(m + cosh(rho) eps - sinh(rho) p3).
    """
    if m <= 0:
        raise ValueError("massive Wigner rotation needs m > 0")
    p = np.asarray(p, dtype=float)
    eps = energy(p, m)
    g = np.cosh(rho / 2.0)
    d = np.sinh(rho / 2.0)
    norm = (m + eps) * (m + np.cosh(rho) * eps - np.sinh(rho) * eta * p[2])
    diag = g * (m + eps) - d * eta * p[2]
    off = d * eta * (p[0] - 1j * p[1])
    return np.array([[diag, off], [-np.conj(off), diag]], dtype=complex) / np.sqrt(norm)


def wigner_rotation_massless(p4, a: np.ndarray) -> np.ndarray:
    """R0(p, A) = B' B(B'^{-1}.p) B(B.q)^{-1} B for lightlike p, A = B' A_rho B.

    q = A^{-1}.p; R0 is in SU(2), dilation invariant in p, and satisfies the
    cocycle R0(p, A) R0(q, A') = R0(p, A A').  For A in SU(2), R0 = A.
    """
    p4 = np.asarray(p4, dtype=float)
    if np.linalg.norm(p4[1:]) == 0.0 or abs(minkowski_square(p4)) > LIGHTLIKE_TOL * float(np.dot(p4, p4)):
        raise ValueError(f"p.p = {minkowski_square(p4)} for p = {p4}")
    b_prime, rho, b = polar_decompose_sl2(np.asarray(a, dtype=complex))
    if rho == 0.0:
        return np.asarray(a, dtype=complex).copy()
    p_mid = lorentz_action(np.linalg.inv(b_prime), p4)
    q_mid = lorentz_action(boost_matrix(-rho), p_mid)
    bp = helicity_cross_section(p_mid[1:])
    bq = helicity_cross_section(q_mid[1:])
    return b_prime @ bp @ np.linalg.inv(bq) @ b


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
        if self.m < 0:
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
