"""Causal positive-operator localization T(Delta) = P+ E(Delta) P+ and its statistics.

Everything diagonal in momentum (pi^+, dilations, H) is applied there; E(Delta)
routes through an FFT pair.  On grids, pi^eta(p) is the shared momentum-space
operator ``dynamics.energy_projector_apply`` (h(p), applied as signed component
permutations, eps(p) and the eps = 0 rule are defined there only).  Two engines
coexist:

  * 3D grid fields for generic states and measurement cascades (a cascade
    runs in three reused arrays, its FFTs pruned to the region's box);
  * a radial reduction for the point-localization sequences, whose momentum
    support grows linearly with the dilation index n and leaves any fixed
    3D grid long before n = 64.

The radial engine closes on states of the form

    phi(p) = s(|p|) + (alpha . p^) v(|p|)        (Dirac, s, v : C^4 valued)
    phi(p) = s(|p|) + (sigma . p^) v(|p|)        (Weyl,  s, v : C^2 valued)

because pi^eta(p), pi_0(p), h(p), dilations and radial masks mix only (s, v);
position representation uses the order-0/1 spherical Bessel transforms
(``field.bessel_sums``: sine and cosine sums through ``field.nufft1``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import energy_projector_apply
from .errors import DomainViolation
from .field import Grid, RegionMask, SpinorField, bessel_sums
# cumulative_simpson is bound here too: bench/test_bench.py checks that the tracer wraps this binding
from .weylradial import ball_integral, cumulative_simpson, radial_integral, simpson_weights  # noqa: F401

# --- 3D grid engine -----------------------------------------------------------


def positive_energy_project(field: SpinorField, out: np.ndarray | None = None) -> SpinorField:
    """P+ phi in momentum representation, into out (not field.values) or a new array; idempotent, commutes with e^{ith}."""
    if field.rep != "momentum":
        raise ValueError("positive_energy_project acts in momentum representation")
    return replace(field, values=energy_projector_apply(field, +1, out=out))


def pol_apply(field: SpinorField, mask: RegionMask, tol: float = 1e-10) -> SpinorField:
    """T(Delta) phi = P+ E(Delta) phi for a positive-energy momentum-rep state.

    The positivity check ||phi - P+ phi|| <= tol max(||phi||, 1) costs one
    projection; tol = inf skips it.
    """
    if field.rep != "momentum":
        raise ValueError("pol_apply acts in momentum representation")
    if np.isfinite(tol) and (field - positive_energy_project(field)).norm() > tol * max(field.norm(), 1.0):
        raise ValueError("state is not in the positive-energy subspace")
    masked = field.to_position().apply_mask(mask).to_momentum()
    return positive_energy_project(masked)


#: |p| at the peak of random_positive_state's envelope
RANDOM_STATE_PEAK = 1.2


def random_positive_state(grid: Grid, system, seed: int) -> SpinorField:
    """Gaussian envelope in |p| (peak RANDOM_STATE_PEAK, width 0.6) times a random spinor, P+-projected, normalized."""
    rng = np.random.default_rng(seed)
    env = np.exp(-0.5 * ((grid.energy(0.0) - RANDOM_STATE_PEAK) / 0.6) ** 2)
    d = system.components
    spin = rng.normal(size=d) + 1j * rng.normal(size=d)
    phase = np.exp(1j * rng.normal(size=env.shape))
    vals = (env * phase) * spin.reshape((d,) + (1,) * grid.dim)  # envelope first, as in field.make_bump
    phi = positive_energy_project(SpinorField(grid, system, "momentum", vals))
    phi.values *= 1.0 / phi.norm()  # normalized in the projection's own array
    return phi


#: deepest measurement cascade whose accumulated roundoff stays negligible: the
#: chain applies T(Delta) depth times, each step adding ~ one FFT roundoff
MAX_CASCADE_DEPTH = 12


@dataclass(frozen=True)
class CascadeStats:
    """Moments and probabilities of the repeated position measurement."""

    gamma: np.ndarray  # gamma_k = <phi1, T(Delta)^k phi1>, k = 0..2N-1
    omega: np.ndarray  # omega_n = gamma_{2n-1}/gamma_{2n-2}
    sigma: np.ndarray  # sigma_n = gamma_{2n-2}
    sigma2: float  # ||T(Delta) phi1||^2
    sigma2_prime: float  # ||T(Delta') phi1||^2
    sigma2_bar: float  # ||(I-P) E(Delta) phi1||^2
    sigma2_bar_prime: float  # ||(I-P) E(Delta') phi1||^2


def _pair_probabilities(pos: SpinorField, mask: RegionMask, work: tuple):
    """(T phi, ||T phi||^2, ||(I-P) E phi||^2) for E = E(mask), from phi in position representation.

    T phi lands in work[1], and (I-P) E phi in work[0].
    """
    e_phi = pos.to_momentum(out=work[0], mask=mask)
    t_phi = positive_energy_project(e_phi, out=work[1])
    sigma2 = t_phi.norm_sq()
    np.subtract(work[0], work[1], out=work[0])
    return t_phi, sigma2, e_phi.norm_sq()


def measurement_cascade(field: SpinorField, mask: RegionMask, depth: int = MAX_CASCADE_DEPTH) -> CascadeStats:
    """Iterated T(Delta) moments up to gamma_{2 depth - 1}, and the pair probabilities.

    T = P+ E(Delta) P+ is self-adjoint on the positive-energy space, so
    gamma_2j = ||T^j phi||^2 and gamma_2j+1 = Re <T^j phi, T^{j+1} phi>: the
    chain takes depth applications of T, not 2 depth - 1.  phi goes to position
    once; E(Delta) phi and E(Delta') phi are both masked from that array and
    projected once each, giving T phi, T' phi and the four sigma^2 values.

    One call allocates three (d, *sites) arrays and every step writes into
    them: phi's position array, which holds the chain's states once E(Delta)
    phi is taken; the masked array (E phi, then each E(Delta) T^j phi, taken
    to position and back through ``to_position`` / ``to_momentum`` with the
    mask); and the projection.  Each FFT runs only on the lines that
    mask.box() can reach (``field._fft_sites``), so every value keeps the bits
    of ``pol_apply``'s unpruned steps.  Each chain step adds ~ one FFT
    roundoff, so depths above MAX_CASCADE_DEPTH raise ValueError instead of
    being cut.
    """
    if field.rep != "momentum":
        raise ValueError("measurement_cascade acts in momentum representation")
    if not 1 <= depth <= MAX_CASCADE_DEPTH:
        raise ValueError(f"cascade depth {depth} outside 1..{MAX_CASCADE_DEPTH}")
    pos = field.to_position()
    work = np.empty_like(pos.values), np.empty_like(pos.values)
    _, sigma2_prime, sigma2_bar_prime = _pair_probabilities(pos, ~mask, work)
    cur, sigma2, sigma2_bar = _pair_probabilities(pos, mask, work)  # cur = T phi, in work[1]
    spare = pos.values  # phi's position is read no more: it takes the chain's next state
    gamma = [1.0, float(np.real(field.inner(cur)))]
    for _ in range(depth - 1):
        e_cur = cur.to_position(out=work[0], mask=mask).to_momentum(out=work[0], mask=mask)
        nxt = positive_energy_project(e_cur, out=spare)
        gamma += [cur.norm_sq(), float(np.real(cur.inner(nxt)))]
        cur, spare = nxt, cur.values
    gamma = np.array(gamma)
    if gamma[1] <= 0.0:
        raise ValueError("T(Delta) phi1 = 0")
    return CascadeStats(
        gamma=gamma,
        omega=gamma[1::2] / gamma[0:-1:2],
        sigma=gamma[0:-1:2],
        sigma2=sigma2,
        sigma2_prime=sigma2_prime,
        sigma2_bar=sigma2_bar,
        sigma2_bar_prime=sigma2_bar_prime,
    )


# --- radial engine ------------------------------------------------------------


@dataclass
class RadialSpinorState:
    """State s(k) + (alpha.p^) v(k) on a radial momentum grid (Dirac or Weyl).

    In position representation the same pair means S(r) + i (alpha.x^) V(r);
    the transforms between the two are the order-0/1 spherical Bessel
    quadratures, unitary on L^2(r^2 dr).
    """

    k: np.ndarray  # radial momentum nodes, uniform from 0
    s: np.ndarray  # (n, d)
    v: np.ndarray  # (n, d)
    system: object  # algebra.Dirac or algebra.Weyl
    rep: str = "momentum"

    @property
    def dk(self) -> float:
        return float(self.k[1] - self.k[0])

    def density(self) -> np.ndarray:
        """|s|^2 + |v|^2 per node: the radial density of the pair in either representation."""
        return np.sum(np.abs(self.s) ** 2 + np.abs(self.v) ** 2, axis=1)

    def norm_sq(self) -> float:
        return radial_integral(simpson_weights(self.k.size, self.dk), self.k, self.density())

    def normalized(self) -> "RadialSpinorState":
        n = np.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return RadialSpinorState(self.k, self.s / n, self.v / n, self.system, self.rep)

    def apply_projector(self, eta: int) -> "RadialSpinorState":
        """pi^eta(k) = (1 + eta h(k) / eps(k)) / 2; h / eps = 0 at the k = 0 node of a massless system."""
        if self.rep != "momentum":
            raise ValueError("projector acts in momentum representation")
        m = self.system.m
        eps = np.sqrt(self.k**2 + m * m)
        eps[eps == 0.0] = np.inf  # k = 0 node of a massless system: weight 1/2
        c = (eta / eps)[:, None]
        h = self.apply_h()
        s_new, v_new = 0.5 * (self.s + c * h.s), 0.5 * (self.v + c * h.v)
        return RadialSpinorState(self.k, s_new, v_new, self.system, self.rep)

    def apply_dilation_limit_projector(self) -> "RadialSpinorState":
        """pi_0(k) = (I + alpha.p^)/2: [s, v] -> [(s+v)/2, (s+v)/2]."""
        if self.rep != "momentum":
            raise ValueError("pi_0 acts in momentum representation")
        half = 0.5 * (self.s + self.v)
        return RadialSpinorState(self.k, half.copy(), half.copy(), self.system, self.rep)

    def apply_h(self) -> "RadialSpinorState":
        """h(k): [s, v] -> [m B s + c k v, c k s - m B v], from the system's coupling c and mass matrix B."""
        sy = self.system
        ck = sy.coupling * self.k[:, None]
        s_new, v_new = ck * self.v, ck * self.s
        if sy.mass_matrix is not None:
            s_new = sy.m * np.einsum("ij,nj->ni", sy.mass_matrix, self.s) + s_new
            v_new = v_new - sy.m * np.einsum("ij,nj->ni", sy.mass_matrix, self.v)
        return RadialSpinorState(self.k, s_new, v_new, sy, self.rep)

    def energy_expectation(self) -> float:
        h = self.apply_h()
        dens = np.real(np.sum(np.conj(self.s) * h.s, axis=1) + np.sum(np.conj(self.v) * h.v, axis=1))
        return radial_integral(simpson_weights(self.k.size, self.dk), self.k, dens)


def _bessel_transform(state: RadialSpinorState, nodes_out: np.ndarray):
    """(S, V)(r) = sqrt(2/pi) int k^2 [j_0(k r) s(k), j_1(k r) v(k)] dk by Simpson's rule.

    ``field.bessel_sums`` with strengths w k s and w v (w the Simpson weights):
    one ``field.nufft1`` call on the evenly spaced outputs, and the direct sum
    at r = 0 and on the rows where the fast sums' quotients may lose accuracy.
    Measured against the dense float64 sum on the test cases: <= 3.0e-13 of max |out|.
    """
    k = state.k
    w = simpson_weights(k.size, state.dk)[:, None]
    s_out, v_out = bessel_sums(k, w * k[:, None] * state.s, w * state.v, nodes_out)
    coef = np.sqrt(2.0 / np.pi)
    return coef * s_out, coef * v_out


def radial_to_position(state: RadialSpinorState, radii: np.ndarray) -> RadialSpinorState:
    """(S, V) on the radii; psi(x) = S(|x|) + i (alpha.x^) V(|x|)."""
    if state.rep != "momentum":
        raise ValueError("state already in position representation")
    return RadialSpinorState(radii, *_bessel_transform(state, radii), state.system, "position")


def radial_to_momentum(state: RadialSpinorState, k_nodes: np.ndarray) -> RadialSpinorState:
    if state.rep != "position":
        raise ValueError("state already in momentum representation")
    return RadialSpinorState(k_nodes, *_bessel_transform(state, k_nodes), state.system, "momentum")


def radial_ball_mass(state: RadialSpinorState, radius: float) -> float:
    """||E(B_radius) psi||^2 from the position-representation pair."""
    if state.rep != "position":
        raise ValueError("ball mass needs position representation")
    return ball_integral(state.k, state.density(), radius)


def shell_state(system, k_nodes: np.ndarray, k_lo: float, k_hi: float) -> RadialSpinorState:
    """1_{k_lo <= |p| <= k_hi} u0(p^) with u0 the dilation-invariant eigenvector.

    u0 satisfies (alpha.p^) u0 = u0, realized as s = v = c/2 for a constant
    spinor c; here c = e_1.  pi_0 u0 = u0 by construction.
    """
    d = system.components
    c = np.zeros(d, dtype=complex)
    c[0] = 1.0
    env = ((k_nodes >= k_lo) & (k_nodes <= k_hi)).astype(complex)
    s = env[:, None] * (0.5 * c)
    v = env[:, None] * (0.5 * c)
    return RadialSpinorState(k_nodes, s, v, system, "momentum")


def dilate_radial(state: RadialSpinorState, n: float) -> RadialSpinorState:
    """D_n^{-1}: phi(k) -> n^{-3/2} phi(k/n) by resampling the radial profile."""
    if state.rep != "momentum":
        raise ValueError("dilation acts in momentum representation")
    kq = state.k / n

    def resample(x):
        cols = [np.interp(kq, state.k, c.real) + 1j * np.interp(kq, state.k, c.imag) for c in x.T]
        return n ** (-1.5) * np.stack(cols, axis=1)

    return RadialSpinorState(state.k, resample(state.s), resample(state.v), state.system, "momentum")


def point_localized_sequence(phi0: RadialSpinorState, n: float) -> RadialSpinorState:
    """phi_n = P+ D_n^{-1} phi0 / ||.||; localized at 0 as n grows."""
    state = dilate_radial(phi0, n)
    q = state.apply_dilation_limit_projector()
    if np.sqrt(max(q.norm_sq(), 0.0)) <= 1e-6:
        raise ValueError("||pi_0 phi0|| is numerically zero")
    state = state.apply_projector(+1)
    nrm = state.norm_sq()
    if nrm <= 0.0:
        raise ValueError("P+ D_n^{-1} phi0 vanished")
    return state.normalized()


def ball_expectation(state: RadialSpinorState, radius: float, radii: np.ndarray) -> float:
    """<phi, T(B_radius) phi> = ||E(B_radius) psi||^2 for positive-energy phi."""
    pos = radial_to_position(state, radii)
    return radial_ball_mass(pos, radius)


def energy_growth(phi0: RadialSpinorState, ns, factory):
    """[(n, <phi_n, H phi_n>/n)] plus the dilation-limit target.

    The target is <Q phi0, |P| Q phi0> / ||Q phi0||^2 with Q the pi_0
    projection, evaluated by radial quadrature.  The momentum support of phi0
    must stay clear of 0 and of the band edge (after the largest dilation):
    at most 1e-12 of its weight within 4 dk of 0 or 2 dk of k_max / max(ns).
    `factory(n)` supplies D_n^{-1} phi0 evaluated exactly, as ``shell_state``
    at n k_lo and n k_hi does for the shell state; resampling would blur sharp
    band edges by a constant relative width and bias the large-n limit.
    """
    dens0 = phi0.density()
    total = float(np.sum(dens0 * phi0.k**2))
    lo_frac = float(np.sum((dens0 * phi0.k**2)[phi0.k < 4 * phi0.dk])) / total
    n_max = max(float(n) for n in ns)
    hi_cells = phi0.k > phi0.k[-1] / n_max - 2 * phi0.dk
    hi_frac = float(np.sum((dens0 * phi0.k**2)[hi_cells])) / total
    if lo_frac > 1e-12 or hi_frac > 1e-12:
        raise DomainViolation("momentum support touches 0 or the band edge")
    q = phi0.apply_dilation_limit_projector()
    qn = q.norm_sq()
    if qn <= 0.0:
        raise ValueError("Q phi0 = 0")
    target = radial_integral(simpson_weights(phi0.k.size, phi0.dk), phi0.k, phi0.k * q.density()) / qn
    rows = []
    for n in ns:
        phi_n = factory(float(n)).apply_projector(+1).normalized()
        rows.append((float(n), phi_n.energy_expectation() / float(n)))
    return rows, target


def truncated_negative_fraction(pos: RadialSpinorState, radius: float, k_nodes: np.ndarray) -> float:
    """||(I - P+) phi^|| for phi^ = E(B_radius) psi / ||E(B_radius) psi||, psi the position pair."""
    mask = (pos.k <= radius).astype(float)[:, None]
    cut = RadialSpinorState(pos.k, pos.s * mask, pos.v * mask, pos.system, "position")
    cut_m = radial_to_momentum(cut, k_nodes).normalized()
    return float(np.sqrt(cut_m.apply_projector(-1).norm_sq()))


def truncation_negative_fraction(phi0: RadialSpinorState, ns, radius: float, radii: np.ndarray):
    """[(n, negative-energy fraction of the ball-truncated phi_n)].

    phi^_n = E(B) phi_n / ||E(B) phi_n||; the fraction ||(I - P+) phi^_n||
    vanishes as the sequence localizes.
    """
    rows = []
    for n in ns:
        pos = radial_to_position(point_localized_sequence(phi0, float(n)), radii)
        rows.append((float(n), truncated_negative_fraction(pos, radius, phi0.k)))
    return rows

