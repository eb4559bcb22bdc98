"""Exact-in-momentum propagators and boosts, and the momentum-space operator they share.

The grid operator of a system lives here and nowhere else: ``h_apply`` applies
h(p) (alpha.p + beta m or chi sigma.p; alpha_3 / sigma_3 on the 1D lane along
e3; each matrix a signed component permutation), ``_energy`` gives eps(p),
and ``energy_projector_apply`` applies pi^eta(p) = (1 + eta h(p)/eps(p))/2
with h/eps = 0 where eps = 0.  The propagators, the boost and the POL
projector in ``pol`` are all built on them.

Time evolution is one FFT pair (``SpinorField.to_momentum`` / ``to_position``)
around the multiplier

    exp(i t h(p)) phi = cos(t eps(p)) phi + i (sin(t eps(p)) / eps(p)) h(p) phi,

valid because h(p)^2 = eps(p)^2 I; sin(t eps)/eps is its limit t where
eps = 0.  The Newton-Wigner (acausal) foil multiplies by the scalar
exp(i t eta eps(p)) instead.  The tables that depend only on the frozen grid
and the mass are built once and returned read-only from bounded caches:
eps(p) per (grid, mass) here (``_energy``), and the per-axis Fourier factors,
origin phase times the transform's scale, per grid in ``field`` (O(n) per
axis; the 3D product is formed per call and not kept).

A pure boost with rapidity rho along e3 acts in position space as

    (boosted psi)(x) = s(A_rho) (exp(-i y0 H) psi)(y),
    y0 = -sinh(rho) x3,  y3 = cosh(rho) x3,

i.e. each output sample needs the state evolved by a sample-dependent time and
read at a sample-dependent point.  Split by energy sign, this is one Fourier
sum over the boosted momenta kappa_eta(p) = cosh(rho) p + eta sinh(rho) eps(p);
on evenly spaced outputs it is a type-1 nonuniform FFT (``field.nufft1``, with
exponential-of-semicircle spreading, O(N log N) in 1D; see ``boost_values``).
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from . import algebra as al
from .errors import GuardViolation, WrongRepresentation
from .field import EPS_LEAK, Grid, RegionMask, SpinorField, even_step, nufft1


def _signed_permutation(mat: np.ndarray) -> tuple:
    """(perm, phase) with mat[i, perm[i]] = phase[i] the one nonzero (+-1 or +-i) of row i."""
    perm = np.argmax(mat != 0, axis=1)
    return perm, mat[np.arange(mat.shape[0]), perm]


_ALPHA = [_signed_permutation(a) for a in al.ALPHA]
_BETA = _signed_permutation(al.BETA)
_SIGMA = [_signed_permutation(s) for s in al.SIGMA]


def h_apply(field: SpinorField, vals: np.ndarray) -> np.ndarray:
    """h(p) vals on the momentum mesh: alpha.p + beta m (Dirac) or chi sigma.p (Weyl).

    The 1D lane runs along e3, so there h(p) = alpha_3 p + beta m or chi sigma_3 p.
    Component i of a term c M vals is (c phase_i) vals[..., perm_i], written from
    strided component views through one scratch plane: bit for bit the dense
    product, whose other entries add exact zeros.
    """
    g, s = field.grid, field.system
    mesh = g.momentum_mesh()
    axes = (2,) if g.dim == 1 else (0, 1, 2)
    if s.kind == "dirac":
        terms = [(pk, _ALPHA[k]) for pk, k in zip(mesh, axes)] + [(s.m, _BETA)]
    else:
        terms = [(s.chi * pk, _SIGMA[k]) for pk, k in zip(mesh, axes)]
    out = np.empty(vals.shape, dtype=complex)
    plane = np.empty(vals.shape[:-1], dtype=complex)
    for i in range(vals.shape[-1]):
        for t, (c, (perm, phase)) in enumerate(terms):
            np.multiply(vals[..., perm[i]], c * phase[i], out=plane if t else out[..., i])
            if t:
                out[..., i] += plane
    return out


@functools.lru_cache(maxsize=2)
def _energy(grid: Grid, m: float) -> np.ndarray:
    """eps(p) = sqrt(|p|^2 + m^2) on the momentum mesh of grid, read-only (one table per grid and mass)."""
    eps = np.sqrt(sum(pk * pk for pk in grid.momentum_mesh()) + m * m)
    eps.setflags(write=False)
    return eps


def energy_projector_apply(field: SpinorField, eta: int) -> np.ndarray:
    """pi^eta(p) phi = (phi + eta (h/eps) phi) / 2 on the momentum mesh.

    h/eps is taken as 0 where eps = 0: the p = 0 cell of a massless system is
    spectrally ambiguous, and h(0) = 0 leaves it at the projector average 1/2,
    keeping pi^+ + pi^- = I exact.
    """
    eps = _energy(field.grid, field.system.m)
    eta_inv = np.divide(eta, eps, out=np.zeros_like(eps), where=eps > 0)
    out = h_apply(field, field.values)
    out *= eta_inv[..., None]
    out += field.values
    out *= 0.5
    return out


def evolution_multiplier_apply(field: SpinorField, t: float) -> np.ndarray:
    """exp(i t h(p)) phi = cos(t eps) phi + i (sin(t eps) / eps) h(p) phi on momentum values.

    sin(t eps) / eps is taken as its limit t where eps = 0.
    """
    eps = _energy(field.grid, field.system.m)
    te = t * eps
    s = np.divide(np.sin(te), eps, out=np.full_like(eps, t), where=eps > 0)
    out = h_apply(field, field.values)
    out *= (1j * s)[..., None]
    out += np.cos(te)[..., None] * field.values
    return out


def check_guard(field: SpinorField, horizon: float) -> None:
    """Raise unless supp(psi) fattened by |horizon| stays inside the grid.

    Support is resolved at the documented leak budget: wrapping less than
    EPS_LEAK of the probability is within the tolerance every causality
    statement already carries on a periodic grid.
    """
    g = field.grid
    axes = range(g.dim) if g.dim == 3 else (0,)
    for ax in axes:
        lo, hi = field.support_bounds(axis=ax, mass_tol=EPS_LEAK)
        a0, a1 = g.axis(ax)[0], g.axis(ax)[-1]
        if lo - abs(horizon) < a0 or hi + abs(horizon) > a1:
            raise GuardViolation(
                f"support [{lo:.4g}, {hi:.4g}] + horizon {abs(horizon):.4g} leaves axis {ax}"
            )


def evolve_causal(field: SpinorField, t: float, guard: bool = True) -> SpinorField:
    """psi_t with the causal multiplier exp(i t h(p)); norm and group law exact."""
    if field.rep != "position":
        raise WrongRepresentation("evolve_causal takes a position-representation field")
    if guard:
        check_guard(field, t)
    phi = field.to_momentum()
    vals = evolution_multiplier_apply(phi, t)
    return replace(phi, values=vals).to_position()


def evolve_newton_wigner(field: SpinorField, t: float, eta: int = +1, guard: bool = True) -> SpinorField:
    """Acausal foil: scalar multiplier exp(i t eta eps(p)) (sign-definite energy)."""
    if field.rep != "position":
        raise WrongRepresentation("evolve_newton_wigner takes a position-representation field")
    if guard:
        check_guard(field, t)
    phi = field.to_momentum()
    phi.values *= np.exp(1j * t * eta * _energy(phi.grid, phi.system.m))[..., None]
    return phi.to_position()


def time_reverse(field: SpinorField) -> SpinorField:
    """Antiunitary T psi = omega conj(psi) in position representation."""
    if field.rep != "position":
        raise WrongRepresentation("time reversal acts in position representation")
    omega = field.system.time_reversal()
    vals = np.einsum("ij,...j->...i", omega, np.conj(field.values))
    return replace(field, values=vals)


def influence_interval(lo: float, hi: float, rho: float):
    """Region of influence of the strip {lo <= x3 <= hi} under a boost of rapidity rho."""
    r = abs(rho)
    new_lo = lo * np.exp(-r) if lo >= 0 else lo * np.exp(r)
    new_hi = hi * np.exp(r) if hi >= 0 else hi * np.exp(-r)
    return new_lo, new_hi


def boost_values(field: SpinorField, rho: float, x_out: np.ndarray) -> np.ndarray:
    """Boosted field at evenly spaced output points x_j = x_0 + j delta (1D along e3).

    Splitting exp(-i y0 H) by the energy projectors pi^eta = (1 + eta h/eps)/2
    turns the boosted field into one sum over the boosted momenta,

        s(A_rho) (dp / sqrt(2 pi)) sum_{eta = +-1} sum_p e^{i x kappa_eta(p)} pi^eta(p) phi(p),
        kappa_eta = cosh(rho) p + eta sinh(rho) eps(p),

    with pi^eta from ``energy_projector_apply`` (pi^- phi = phi - pi^+ phi).
    On x_j = x_0 + j delta this is a type-1 transform in theta = delta kappa
    mod 2 pi (the wrap is exact because j is an integer), evaluated by
    ``field.nufft1``: exponential-of-semicircle spreading over 15 fine cells on
    a grid oversampled at least 2.5x, one FFT per spinor component, within
    NUFFT_ERR = 5e-14 of sum |strengths| (tested against a long-double sum).

    Outputs that are not evenly spaced (to 1e-12 relative) raise
    NotEvenlySpaced.  Accuracy requires the light cone of supp(psi) at time
    y0(x) = -sinh(rho) x to stay inside the grid for every requested x
    (checked, GuardViolation otherwise).
    """
    if field.grid.dim != 1:
        raise NotImplementedError("boosts are implemented for the 1D lane only")
    if field.rep != "position":
        raise WrongRepresentation("boost acts on position-representation fields")
    g = field.grid
    x_out = np.asarray(x_out, dtype=float)
    lo, hi = field.support_bounds()
    a0, a1 = g.axis(0)[0], g.axis(0)[-1]
    y0_max = float(np.max(np.abs(np.sinh(rho) * x_out))) if x_out.size else 0.0
    if lo - y0_max < a0 or hi + y0_max > a1:
        raise GuardViolation(
            f"evolution window {y0_max:.4g} pushes the light cone of "
            f"[{lo:.4g}, {hi:.4g}] outside the grid"
        )
    if x_out.size == 0:
        return np.zeros((0, field.system.components), dtype=complex)
    delta = even_step(x_out)
    phi = field.to_momentum()
    p, eps = g.paxis(), _energy(g, phi.system.m)
    kappa = np.concatenate([np.cosh(rho) * p + eta * np.sinh(rho) * eps for eta in (1, -1)])
    plus = energy_projector_apply(phi, +1)
    proj = np.concatenate([plus, phi.values - plus])
    strengths = np.exp(1j * x_out[0] * kappa)[:, None] * proj
    out = (g.dp / np.sqrt(2.0 * np.pi)) * nufft1(delta * kappa, strengths, x_out.size)
    srep = field.system.boost_rep(al.boost_matrix(rho))
    return np.einsum("ij,xj->xi", srep, out)


def boost_e3(field: SpinorField, rho: float) -> SpinorField:
    """Boost along e3 returned on the input grid; zero outside the influence region."""
    if rho == 0.0:
        return field.copy()
    g = field.grid
    # support resolved deep below the leak budget so the zeroed exterior cuts
    # only roundoff-level amplitude (matters when composing boosts)
    lo, hi = field.support_bounds(mass_tol=1e-16)
    new_lo, new_hi = influence_interval(lo, hi, rho)
    a0, a1 = g.axis(0)[0], g.axis(0)[-1]
    if new_lo < a0 + g.dx or new_hi > a1 - g.dx:
        raise GuardViolation(
            f"influence region [{new_lo:.4g}, {new_hi:.4g}] leaves the grid"
        )
    x = g.axis(0)
    inside = (x >= new_lo - g.dx) & (x <= new_hi + g.dx)
    vals = np.zeros_like(field.values)
    vals[inside] = boost_values(field, rho, x[inside])
    return replace(field, values=vals)


def newton_wigner_leak(field: SpinorField, t: float):
    """(causal leak, positive-energy Newton-Wigner leak) outside the light cone of supp at time t, and
    the causal psi_t that the first is read from, so that a caller need not evolve again."""
    g = field.grid
    lo, hi = field.support_bounds()
    cone = RegionMask.strip(g, lo - abs(t), hi + abs(t))
    causal = evolve_causal(field, t)
    foil = evolve_newton_wigner(field, t)
    return causal.probability(~cone), foil.probability(~cone), causal
