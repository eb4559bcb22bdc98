"""Closed-form evolution of radially symmetric Weyl states.

For psi(x) = g(|x|) with a square-integrable 2-spinor profile g the evolved
state splits into outgoing/ingoing projections plus a remainder:

    psi_t = A^+_t + A^-_t + R_t
    A^s_t(x) = pi^{chi s}(x/|x|) ((|x| + s t)/|x|) g(||x| + s t|)
    R_t(x)   = h^chi(x/|x|) (1/2|x|^2) (G(||x|+t|) - G(||x|-t|)),
    G(r)     = -int_0^r rho g(rho) d rho

Everything reduces to radial quadrature: writing psi_t(x) = u(r) + h^chi(x^) v(r)
with u = (a_+ + a_-)/2 and v = (a_+ - a_-)/2 + rho_t, the solid-angle integral
of any ball or slab probability collapses to an (r, xi) integral whose xi part
is exact (the integrand is affine in xi = cos(theta)).  ``evolved_quadrature``
evaluates the closed form once per (profile, chi, t) on the Simpson nodes of
[0, r_max + |t|] and keeps the xi moments of |psi_t|^2 and the density of R_t;
the ball, slab and splitting outputs at that t all read this one value.

The independent spectral route uses the Fourier-sine pair j f = S(j g) of the
radial momentum profile: the forward sine transform is one ``field.nufft1``
call, and the evolved (u, v) are the order-0/1 spherical Bessel sums
``field.bessel_sums`` that pol's radial transforms use too.  It shares nothing
with the closed form beyond g itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SIGMA, sinc
from .errors import OriginSingular
from .field import bessel_rows, bessel_sums, sin_cos_sums

#: profile nodes when none are given, and the interval count of every radial
#: quadrature of the evolved state (even, as Simpson's rule needs)
DEFAULT_NODES = 4096
#: amplitude, relative to the peak, that sets the edge of the sine-transform band
_BAND_TOL = 1e-13


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite Simpson weights for an odd number of uniformly spaced points."""
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("Simpson needs an odd number of points")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def cumulative_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral on the same nodes; Simpson over interval pairs.

    Odd nodes get the 5/8/-1 half-panel rule so the cumulative values stay
    consistent with the full composite rule at even nodes.
    """
    out = np.zeros_like(f, dtype=complex if np.iscomplexobj(f) else float)
    out[2::2] = np.cumsum(h / 3.0 * (f[0:-2:2] + 4.0 * f[1::2] + f[2::2]), axis=0)
    out[1::2] = out[0:-2:2] + h / 12.0 * (5.0 * f[0:-2:2] + 8.0 * f[1::2] - f[2::2])
    return out


@dataclass
class RadialProfile:
    """Radial 2-spinor profile on a uniform grid over [0, r_max].

    The cumulative moment G(r) = -int_0^r rho g(rho) d rho is computed with
    the same nodes (cumulative Simpson) so its discrete cancellations at t = 0
    are exact to rounding.
    """

    r: np.ndarray
    g: np.ndarray  # (n, 2) complex
    G: np.ndarray  # (n, 2) complex

    @staticmethod
    def from_callable(g_of_r, r_max: float, n_nodes: int = DEFAULT_NODES) -> "RadialProfile":
        r = np.linspace(0.0, r_max, n_nodes + 1)
        g = np.asarray(g_of_r(r), dtype=complex)
        if g.shape != (r.size, 2):
            raise ValueError("profile callable must map radii to shape (n, 2)")
        G = -cumulative_simpson(r[:, None] * g, r[1] - r[0])
        return RadialProfile(r, g, G)

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])

    def norm_sq(self) -> float:
        w = simpson_weights(self.r.size, self.dr)
        return float(4.0 * np.pi * np.sum(w * self.r**2 * np.sum(np.abs(self.g) ** 2, axis=1)))

    def normalized(self) -> "RadialProfile":
        n = np.sqrt(self.norm_sq())
        return RadialProfile(self.r, self.g / n, self.G / n)

    def _interp(self, table: np.ndarray, radii: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Linear interpolation of the (n, 2) complex table at |radii|, right[c] beyond r_max."""
        rq = np.abs(np.asarray(radii, dtype=float))
        out = np.empty(rq.shape + (2,), dtype=complex)
        for c in range(2):
            out[..., c] = np.interp(rq, self.r, table[:, c], right=right[c])
        return out

    def g_at(self, radii: np.ndarray) -> np.ndarray:
        """Linear interpolation of g at |radii| (zero beyond r_max)."""
        return self._interp(self.g, radii, np.zeros(2, dtype=complex))

    def G_at(self, radii: np.ndarray) -> np.ndarray:
        """G at |radii|; constant (total moment) beyond r_max."""
        return self._interp(self.G, radii, self.G[-1])


def radial_parts(profile: RadialProfile, t: float, radii: np.ndarray):
    """(a_plus, a_minus, rho_t) radial 2-spinor factors at the given radii.

    A^s_t(x) = pi^{chi s}(x^) a_s(|x|) and R_t(x) = h^chi(x^) rho_t(|x|);
    radii below half a profile step are rejected (1/r^2 is only removably
    singular in exact arithmetic).
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < profile.dr / 2.0):
        raise OriginSingular("evaluation requested below dr/2")
    a_plus = ((radii + t) / radii)[:, None] * profile.g_at(radii + t)
    a_minus = ((radii - t) / radii)[:, None] * profile.g_at(radii - t)
    rho = (profile.G_at(radii + t) - profile.G_at(radii - t)) / (2.0 * radii**2)[:, None]
    return a_plus, a_minus, rho


def _scalar_vector(a_plus, a_minus, rho):
    """(u, v) from the radial factors: u = (a_+ + a_-)/2, v = (a_+ - a_-)/2 + rho_t."""
    return 0.5 * (a_plus + a_minus), 0.5 * (a_plus - a_minus) + rho


def scalar_vector_parts(profile: RadialProfile, t: float, radii: np.ndarray):
    """psi_t(x) = u(|x|) + h^chi(x^) v(|x|): returns (u, v) on the radii."""
    return _scalar_vector(*radial_parts(profile, t, radii))


# --- radial quadratures of the evolved state --------------------------------


@dataclass(frozen=True)
class EvolvedQuadrature:
    """psi_t of one (profile, chi, t) on the Simpson nodes r, weights w of [0, r_max + |t|].

    a + b xi is the azimuthal average of |psi_t|^2 at xi = cos(theta) and
    rho_sq = |rho_t|^2 the remainder's radial density: all that the ball, slab
    and splitting quadratures read.
    """

    profile: RadialProfile
    t: float
    r: np.ndarray
    w: np.ndarray
    a: np.ndarray
    b: np.ndarray
    rho_sq: np.ndarray


def evolved_quadrature(profile: RadialProfile, chi: int, t: float) -> EvolvedQuadrature:
    """One radial_parts call on [0, r_max + |t|], the origin node moved to dr/2."""
    r_max = profile.r_max + abs(t)
    r = np.linspace(0.0, r_max, DEFAULT_NODES + 1)
    r[0] = profile.dr / 2.0  # exclude the removable origin
    w = simpson_weights(r.size, r_max / DEFAULT_NODES)
    a_plus, a_minus, rho = radial_parts(profile, t, r)
    u, v = _scalar_vector(a_plus, a_minus, rho)
    a = np.sum(np.abs(u) ** 2 + np.abs(v) ** 2, axis=1)
    b = 2.0 * chi * np.real(np.einsum("ni,ij,nj->n", np.conj(u), SIGMA[2], v))
    return EvolvedQuadrature(profile, t, r, w, a, b, np.sum(np.abs(rho) ** 2, axis=1))


def _xi_integral(q: EvolvedQuadrature, x0, x1) -> float:
    """2 pi sum_r w r^2 int_{x0}^{x1} (a + b xi) dxi, exact in xi (empty where x1 <= x0)."""
    width = np.maximum(x1 - x0, 0.0)
    second = np.where(width > 0.0, (x1**2 - x0**2) / 2.0, 0.0)
    return float(2.0 * np.pi * np.sum(q.w * q.r**2 * (q.a * width + q.b * second)))


def ball_probability_evolved(q: EvolvedQuadrature, center: float = 0.0, radius: float | None = None) -> float:
    """P(psi_t in ball of given radius centered at center*e3), exact in xi.

    The angular integrand is affine in xi = cos(theta): with u, v the scalar
    and vector radial parts, the azimuthal average of |psi_t|^2 is
    |u|^2 + |v|^2 + 2 chi xi Re<u, sigma3 v>, and the hit condition
    r^2 - 2 r c xi + c^2 <= radius^2 clips xi to an exact interval.
    """
    rad = abs(q.t) if radius is None else radius
    r, c = q.r, center
    if c == 0.0:
        cum = cumulative_simpson(r**2 * q.a, float(r[-1] - r[-2]))
        return float(4.0 * np.pi * np.interp(rad, r, cum))
    lo = (r**2 + c**2 - rad**2) / (2.0 * r * c)
    if c > 0:
        x0, x1 = np.clip(lo, -1.0, 1.0), np.ones_like(r)
    else:
        x0, x1 = -np.ones_like(r), np.clip(lo, -1.0, 1.0)
    return _xi_integral(q, x0, x1)


def slab_probability_evolved(q: EvolvedQuadrature, beta: float = 0.0) -> float:
    """P(psi_t in {|x3 - beta| <= |t|}) by the same (r, xi) quadrature."""
    x0 = np.clip((beta - abs(q.t)) / q.r, -1.0, 1.0)
    x1 = np.clip((beta + abs(q.t)) / q.r, -1.0, 1.0)
    return _xi_integral(q, x0, x1)


def _shifted_norm(profile: RadialProfile, t: float, s: int, extent: float) -> float:
    """2 pi int_0^extent (r + s t)^2 |g(|r + s t|)|^2 dr by Simpson's rule."""
    rr = np.linspace(0.0, extent, DEFAULT_NODES + 1)
    w = simpson_weights(rr.size, extent / DEFAULT_NODES)
    shifted = rr + s * t
    dens = np.sum(np.abs(profile.g_at(shifted)) ** 2, axis=1)
    return float(2.0 * np.pi * np.sum(w * shifted**2 * dens))


def splitting_norms(q: EvolvedQuadrature):
    """(||A^+_t||^2, ||A^-_t||^2, ||R_t||^2) by radial quadrature."""
    norm_r = float(4.0 * np.pi * np.sum(q.w * q.r**2 * q.rho_sq))
    r_max = q.profile.r_max + abs(q.t)
    return _shifted_norm(q.profile, q.t, +1, r_max), _shifted_norm(q.profile, q.t, -1, r_max), norm_r


def ball_capture_split(profile: RadialProfile, t: float, s: int) -> float:
    """||E(B_|t|) A^s_t||^2 = 2 pi int_0^|t| (r + s t)^2 |g(|r + s t|)|^2 dr."""
    return _shifted_norm(profile, t, s, abs(t))


def ball_probability_static(profile: RadialProfile, radius: float) -> float:
    """||E(B_radius) psi||^2 = 4 pi int_0^radius r^2 |g|^2 dr on the profile nodes."""
    r = profile.r
    dens = np.sum(np.abs(profile.g) ** 2, axis=1)
    cum = cumulative_simpson(r**2 * dens, profile.dr)
    return float(4.0 * np.pi * np.interp(radius, r, cum))


# --- independent spectral route ---------------------------------------------


def _sine_transform_at(profile: RadialProfile, s: np.ndarray) -> np.ndarray:
    """u~(s) = sqrt(2/pi) sum_r w r g sin(s r) at evenly spaced s (one nufft1 call, no quotient)."""
    w = simpson_weights(profile.r.size, profile.dr)
    sine = np.sqrt(2.0 / np.pi) * (w * profile.r)[:, None] * profile.g
    return sin_cos_sums(profile.r, s, sine)[0]


def sine_transform_profile(profile: RadialProfile):
    """(s nodes, u~ = S(j g) samples) over the momentum band the profile fills.

    The band edge is probed on [0, Nyquist/2] (the forward quadrature aliases
    near the full node Nyquist) and set where the amplitude last exceeds
    _BAND_TOL of its peak, so the inverse quadratures resolve sin(s r) instead
    of chasing the node Nyquist.  The final grid reuses the profile node count.
    """
    probe_max = 0.5 * np.pi / profile.dr
    probe = np.linspace(0.0, probe_max, 2049)
    amp = np.sum(np.abs(_sine_transform_at(profile, probe)) ** 2, axis=1)
    above = np.nonzero(amp > _BAND_TOL**2 * float(amp.max()))[0]
    edge = probe[above[-1]] if above.size else probe[-1]
    s_max = min(1.25 * edge + 1.0, probe_max)
    n = profile.r.size - 1
    s = np.linspace(0.0, s_max, n + 1)
    return s, _sine_transform_at(profile, s)


def spectral_evolve(profile: RadialProfile, chi: int, t: float, radii: np.ndarray):
    """(u, v) parts of psi_t at the radii via the Fourier-sine route.

    u(r) = (1/r) S[cos(ts) u~](r) = sqrt(2/pi) sum_s f_cos s j_0(s r)
    v(r) = (1/r) C[sin(ts) u~](r) - (t/r^2) S[sinc(ts) u~](r)
         = -sqrt(2/pi) sum_s f_snc s^2 j_1(s r)
    with S/C the sine/cosine sums over the s band, f_cos = w cos(ts) u~ and
    f_snc = w t sinc(ts) u~ (w the Simpson weights; sin(ts) = s t sinc(ts)).
    Both are ``field.bessel_sums`` on radii[1:], which must be evenly spaced;
    radii[0] is one direct row, so it may sit off that grid (the crosscheck's
    dr/2 in place of the origin).  Independent of the closed form: no use of G
    or the shifted profile.
    """
    radii = np.asarray(radii, dtype=float)
    s, ut = sine_transform_profile(profile)
    ws = simpson_weights(s.size, s[1] - s[0])[:, None]
    f_cos = np.cos(t * s)[:, None] * ut * ws
    f_snc = (t * sinc(t * s))[:, None] * ut * ws
    u0, v0 = bessel_rows(s, f_cos, f_snc, radii[:1])
    u, v = bessel_sums(s, f_cos, f_snc, radii[1:])
    coef = np.sqrt(2.0 / np.pi)
    return coef * np.vstack([u0, u]), -coef * np.vstack([v0, v])


def crosscheck_against_spectral(profile: RadialProfile, chi: int, t: float) -> float:
    """Relative L2 discrepancy between the closed form and the sine route on 2048 intervals."""
    r_max = profile.r_max + abs(t) + 1.0
    radii = np.linspace(0.0, r_max, 2049)
    radii[0] = profile.dr / 2.0
    w = simpson_weights(radii.size, r_max / 2048)
    u_cf, v_cf = scalar_vector_parts(profile, t, radii)
    u_sp, v_sp = spectral_evolve(profile, chi, t, radii)
    diff = np.sum(np.abs(u_cf - u_sp) ** 2 + np.abs(v_cf - v_sp) ** 2, axis=1)
    err = 4.0 * np.pi * np.sum(w * radii**2 * diff)
    return float(np.sqrt(err / profile.norm_sq()))


# --- asymptotics --------------------------------------------------------------


def asymptotic_ball_probability(profile: RadialProfile, b, chi: int):
    """Limits of ||E(B_|t|) psi_t||^2 for t -> +inf / -inf, psi centered at b.

    1/2 +- 2 pi int_0^1 int_0^{|b| xi} xi r^2 <g(r), h^chi(b/|b|) g(r)> dr dxi;
    both limits lie in [1/4, 3/4] and equal 1/2 exactly for b = 0.
    """
    b = np.asarray(b, dtype=float)
    bmag = float(np.linalg.norm(b))
    if bmag == 0.0:
        return 0.5, 0.5
    h = chi * np.einsum("k,kij->ij", b / bmag, SIGMA)
    q = np.real(np.einsum("ni,ij,nj->n", np.conj(profile.g), h, profile.g))
    moment = cumulative_simpson(profile.r**2 * q, profile.dr)  # int_0^y r^2 q dr
    n_xi = 513
    xi = np.linspace(0.0, 1.0, n_xi)
    w_xi = simpson_weights(n_xi, xi[1] - xi[0])
    inner = np.interp(np.minimum(bmag * xi, profile.r_max), profile.r, moment)
    corr = 2.0 * np.pi * float(np.sum(w_xi * xi * inner))
    return 0.5 + corr, 0.5 - corr
