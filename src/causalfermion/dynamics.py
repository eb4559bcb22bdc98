"""Exact-in-momentum propagators and boosts, and the momentum-space operator they share.

The grid operator of a system lives here: ``h_apply`` applies h(p)
(alpha.p + beta m or chi sigma.p, read from the matrices the system class
declares; alpha_3 / sigma_3 on the 1D lane along e3; each matrix a signed
component permutation), ``Grid.energy`` gives eps(p), and
``energy_projector_apply`` applies pi^eta(p) = (1 + eta h(p)/eps(p))/2
with h/eps = 0 where eps = 0.  The propagators, the boost and the POL
projector in ``pol`` are all built on them.

Time evolution is one FFT pair (``SpinorField.to_momentum`` / ``to_position``)
around the multiplier

    exp(i t h(p)) phi = cos(t eps(p)) phi + i (sin(t eps(p)) / eps(p)) h(p) phi,

valid because h(p)^2 = eps(p)^2 I; sin(t eps)/eps is its limit t where
eps = 0.  The Newton-Wigner (acausal) foil multiplies by the scalar
exp(i t eta eps(p)) instead.  Every table that depends only on the grid
and the mass is read from ``field`` (the momentum mesh, eps(p) and the
Fourier factors; see ``Grid``).  The one table kept here is keyed by the
time as well: the multiplier's rows cos(t eps) and sin(t eps)/eps per
(grid, mass, t), read-only in a two-entry cache (``_evolution_rows``: the
+-alpha pair of a late-change polish).  The FFT grid's momenta are odd
under j -> n - j on the last axis, bit for bit, so eps(p) is even there:
the rows and the foil's phase exp(i t eta eps) are evaluated on
j = 0..n/2 and mirrored (``_mirror``), half the transcendental work with
the whole-grid bits.

Every causal evolution is a stream (``evolve_times``): one guard check at
max |t|, one forward FFT and one h(p) phi serve every time, and each time
costs the multiplier, written into a new (d, *sites) array (the last time
into h(p) phi, which it no longer needs), and the inverse FFT run in place
on that array.  The stream holds phi and h(p) phi and yields one psi_t at a
time, so its memory does not grow with the number of times;
``evolve_causal`` is the stream at a single time, and keeps two (d, *sites)
arrays, phi and the one it returns.  The ``evolve`` command's stream,
``newton_wigner_leaks``, runs the foil beside it: one support scan for the
light cones as well, and per time the foil's phase product and inverse FFT,
then the causal multiplier and inverse FFT, both written into one work array
reused across times; it holds three (d, *sites) arrays, and
``newton_wigner_leak`` is its one-time case.  Every table above is
site-shaped and broadcasts over the component axis of a field's (d, *sites)
values.

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
from .causalgeo import influence_strip
from .errors import GuardViolation
from .field import EPS_LEAK, Grid, RegionMask, SpinorField, even_step, nufft1, read_only


def _signed_permutation(mat: np.ndarray) -> tuple:
    """(perm, phase) with mat[i, perm[i]] = phase[i] the one nonzero (+-1 or +-i) of row i."""
    perm = np.argmax(mat != 0, axis=1)
    return perm, mat[np.arange(mat.shape[0]), perm]


@functools.cache
def _h_tables(system_type) -> tuple:
    """Signed permutations of a system class's momentum matrices, and of its mass matrix (None if it has none)."""
    mass = system_type.mass_matrix
    return ([_signed_permutation(a) for a in system_type.momentum_matrices],
            None if mass is None else _signed_permutation(mass))


def h_apply(field: SpinorField, vals: np.ndarray) -> np.ndarray:
    """h(p) vals on the momentum mesh, c sum_k M_k p_k + m B from the system's declared matrices.

    The 1D lane runs along e3, so there h(p) = c M_3 p + m B.
    Component i of a term c M vals is (c phase_i) vals[perm_i], written plane
    by plane from the contiguous component planes through one scratch plane:
    bit for bit the dense product, whose other entries add exact zeros.
    """
    g, s = field.grid, field.system
    axes = (2,) if g.dim == 1 else (0, 1, 2)
    momentum, mass = _h_tables(type(s))
    terms = [(s.coupling * pk, momentum[k]) for pk, k in zip(g.momentum_mesh(), axes)]
    if mass is not None:
        terms.append((s.m, mass))
    out = np.empty(vals.shape, dtype=complex)
    plane = np.empty(vals.shape[1:], dtype=complex)
    for i in range(len(vals)):
        for t, (c, (perm, phase)) in enumerate(terms):
            np.multiply(vals[perm[i]], c * phase[i], out=plane if t else out[i])
            if t:
                out[i] += plane
    return out


def _mirror(half: np.ndarray, n: int) -> np.ndarray:
    """A row on the whole FFT grid from its values at j = 0..n // 2 of the last axis: index n - j repeats j.

    The grid's momenta satisfy p[n - j] = -p[j] exactly (``fftfreq`` negates
    integers), so eps(p), and every function of it, is even in j -> n - j:
    a row evaluated on half and mirrored keeps the bits of the whole-grid row.
    """
    k = half.shape[-1]
    out = np.empty(half.shape[:-1] + (n,), dtype=half.dtype)
    out[..., :k] = half
    out[..., k:] = half[..., n - k : 0 : -1]
    return out


def _half(eps: np.ndarray) -> np.ndarray:
    """eps at j = 0..n // 2 of the last axis: every distinct value (see ``_mirror``)."""
    return eps[..., : eps.shape[-1] // 2 + 1]


def _multiplier_rows(eps: np.ndarray, t: float) -> tuple:
    """(cos(t eps), sin(t eps) / eps), evaluated on half the spectrum and mirrored; sin(t eps) / eps = t where eps = 0."""
    e = _half(eps)
    te = t * e
    s = np.divide(np.sin(te), e, out=np.full_like(e, t), where=e > 0)
    return _mirror(np.cos(te), eps.shape[-1]), _mirror(s, eps.shape[-1])


def _foil_row(eps: np.ndarray, t: float, eta: int) -> np.ndarray:
    """The Newton-Wigner phase exp(i t eta eps), evaluated on half the spectrum and mirrored."""
    return _mirror(np.exp(1j * t * eta * _half(eps)), eps.shape[-1])


@functools.lru_cache(maxsize=2)  # the +-alpha pair that a late-change polish alternates
def _evolution_rows(grid: Grid, m: float, t: float) -> tuple:
    """(cos(t eps), sin(t eps) / eps) on the momentum mesh, read-only; sin(t eps) / eps = t where eps = 0."""
    return read_only(*_multiplier_rows(grid.energy(m), t))


def energy_projector_apply(field: SpinorField, eta: int) -> np.ndarray:
    """pi^eta(p) phi = (phi + eta (h/eps) phi) / 2 on the momentum mesh.

    h/eps is taken as 0 where eps = 0: the p = 0 cell of a massless system is
    spectrally ambiguous, and h(0) = 0 leaves it at the projector average 1/2,
    keeping pi^+ + pi^- = I exact.
    """
    eps = field.grid.energy(field.system.m)
    eta_inv = np.divide(eta, eps, out=np.zeros_like(eps), where=eps > 0)
    out = h_apply(field, field.values)
    out *= eta_inv
    out += field.values
    out *= 0.5
    return out


def evolution_multiplier_apply(
    field: SpinorField, t: float, h_phi: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """exp(i t h(p)) phi = cos(t eps) phi + i (sin(t eps) / eps) h(p) phi on momentum values, into out.

    sin(t eps) / eps is taken as its limit t where eps = 0.  h_phi is h(p) phi
    (``h_apply``); out may be h_phi, which is read before it is written, and
    out=None writes a new array.  The field is never written to, so one phi
    and h(p) phi serve every time of a stream.
    """
    c, s = _evolution_rows(field.grid, field.system.m, t)
    plane = 1j * s
    out = np.multiply(h_phi, plane, out=out)
    for o, v in zip(out, field.values):  # i s is read: its plane now holds each component's c phi in turn
        o += np.multiply(c, v, out=plane)
    return out


def check_guard(field: SpinorField, horizon: float) -> None:
    """Raise unless supp(psi) fattened by |horizon| stays inside the grid.

    Support is resolved at the documented leak budget: wrapping less than
    EPS_LEAK of the probability is within the tolerance every causality
    statement already carries on a periodic grid.  One site-density pass
    serves every axis (``SpinorField.support_box``).  The check only gets
    stricter as |horizon| grows, so a check at max |t| covers every smaller |t|.
    """
    g = field.grid
    for ax, (lo, hi) in enumerate(field.support_box(EPS_LEAK)):
        a0, a1 = g.axis(ax)[0], g.axis(ax)[-1]
        if lo - abs(horizon) < a0 or hi + abs(horizon) > a1:
            raise GuardViolation(
                f"support [{lo:.4g}, {hi:.4g}] + horizon {abs(horizon):.4g} leaves axis {ax}"
            )


def _stream_start(field: SpinorField, times, guard: bool) -> tuple:
    """(phi, h(p) phi, times as floats): the guard check at max |t|, forward FFT and h(p) phi a stream's times share."""
    if field.rep != "position":
        raise ValueError("causal evolution takes a position-representation field")
    times = np.asarray(times, dtype=float)
    if guard:
        check_guard(field, float(np.max(np.abs(times), initial=0.0)))
    phi = field.to_momentum()
    return phi, h_apply(phi, phi.values), times


def evolve_times(field: SpinorField, times, guard: bool = True):
    """Yield psi_t with the causal multiplier exp(i t h(p)) for each t of times, in order.

    One guard check at max |t|, one forward FFT and one h(p) phi serve every
    time; each psi_t is a new field, so a caller may keep or modify it.  As a
    generator, the checks run at the first ``next``.
    """
    phi, h_phi, times = _stream_start(field, times, guard)
    last = times.size - 1
    for k, t in enumerate(times):
        # a new array per time; the last time needs h(p) phi no more and is written over it
        vals = evolution_multiplier_apply(phi, float(t), h_phi, out=h_phi if k == last else None)
        yield replace(phi, values=vals).to_position(out=vals)
        del vals  # the caller's psi_t alone keeps it


def evolve_causal(field: SpinorField, t: float, guard: bool = True) -> SpinorField:
    """psi_t with the causal multiplier exp(i t h(p)); norm and group law exact.  The stream at one time."""
    return next(evolve_times(field, (t,), guard))


def evolve_newton_wigner(field: SpinorField, t: float, eta: int = +1, guard: bool = True) -> SpinorField:
    """Acausal foil: scalar multiplier exp(i t eta eps(p)) (sign-definite energy)."""
    if field.rep != "position":
        raise ValueError("evolve_newton_wigner takes a position-representation field")
    if guard:
        check_guard(field, t)
    phi = field.to_momentum()
    phi.values *= _foil_row(phi.grid.energy(phi.system.m), t, eta)
    return phi.to_position(out=phi.values)


def time_reverse(field: SpinorField) -> SpinorField:
    """Antiunitary T psi = omega conj(psi) in position representation."""
    if field.rep != "position":
        raise ValueError("time reversal acts in position representation")
    vals = np.einsum("ij,j...->i...", field.system.time_reversal(), np.conj(field.values))
    return replace(field, values=vals)


def boost_values(field: SpinorField, rho: float, x_out: np.ndarray) -> np.ndarray:
    """Boosted field at evenly spaced output points x_j = x_0 + j delta (1D along e3), shape (d, len(x_out)).

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
    ValueError.  Accuracy requires the light cone of supp(psi) at time
    y0(x) = -sinh(rho) x to stay inside the grid for every requested x
    (checked, GuardViolation otherwise).
    """
    if field.grid.dim != 1:
        raise NotImplementedError("boosts are implemented for the 1D lane only")
    if field.rep != "position":
        raise ValueError("boost acts on position-representation fields")
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
        return np.zeros((field.system.components, 0), dtype=complex)
    delta = even_step(x_out)
    phi = field.to_momentum()
    p, eps = g.paxis(), g.energy(phi.system.m)
    kappa = np.concatenate([np.cosh(rho) * p + eta * np.sinh(rho) * eps for eta in (1, -1)])
    plus = energy_projector_apply(phi, +1)
    proj = np.concatenate([plus, phi.values - plus], axis=1)
    strengths = np.exp(1j * x_out[0] * kappa) * proj
    out = (g.dp / np.sqrt(2.0 * np.pi)) * nufft1(delta * kappa, strengths.T, x_out.size)
    srep = field.system.boost_rep(al.boost_matrix(rho))
    return np.einsum("ij,xj->ix", srep, out)


def boost_e3(field: SpinorField, rho: float) -> SpinorField:
    """Boost along e3 returned on the input grid; zero outside the influence region."""
    if rho == 0.0:
        return field.copy()
    g = field.grid
    # support resolved deep below the leak budget so the zeroed exterior cuts
    # only roundoff-level amplitude (matters when composing boosts)
    lo, hi = field.support_bounds(mass_tol=1e-16)
    new_lo, new_hi = influence_strip(lo, hi, rho)
    x = g.axis(0)
    if new_lo < x[0] + g.dx or new_hi > x[-1] - g.dx:
        raise GuardViolation(f"influence region [{new_lo:.4g}, {new_hi:.4g}] leaves the grid")
    inside = (x >= new_lo - g.dx) & (x <= new_hi + g.dx)
    vals = np.zeros_like(field.values)
    vals[:, inside] = boost_values(field, rho, x[inside])
    return replace(field, values=vals)


def newton_wigner_leaks(field: SpinorField, times):
    """Yield (causal leak, positive-energy Newton-Wigner leak, causal psi_t) for each t of times, in order.

    Both leaks are the probability outside the light cone of supp(psi) at time
    t, and psi_t is the causal state the first is read from.  One guard check
    at max |t|, one support scan, one forward FFT and one h(p) phi serve every
    time.  Each time writes the foil's psi_t and then the causal psi_t into one
    work array, so the psi_t yielded is overwritten at the next time: a caller
    keeps what it reads from it, not the field.
    """
    g = field.grid
    lo, hi = field.support_bounds()
    phi, h_phi, times = _stream_start(field, times, True)
    eps = g.energy(phi.system.m)
    work = np.empty_like(phi.values)
    for t in map(float, times):
        outside = ~RegionMask.strip(g, lo - abs(t), hi + abs(t))
        np.multiply(phi.values, _foil_row(eps, t, +1), out=work)
        foil_leak = replace(phi, values=work).to_position(out=work).probability(outside)
        evolution_multiplier_apply(phi, t, h_phi, out=work)
        causal = replace(phi, values=work).to_position(out=work)
        yield causal.probability(outside), foil_leak, causal


def newton_wigner_leak(field: SpinorField, t: float):
    """(causal leak, positive-energy Newton-Wigner leak) outside the light cone of supp at time t, and
    the causal psi_t that the first is read from, so that a caller need not evolve again.  The stream at one time."""
    return next(newton_wigner_leaks(field, (t,)))
