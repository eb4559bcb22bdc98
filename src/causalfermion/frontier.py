"""Support-frontier tracking and tent-law machinery (1D lane along e3).

The support edge e(psi) in direction e is the largest alpha such that the
half-space {x e <= alpha} carries no mass; on the grid it is resolved at cell
boundaries with a mass-fraction tolerance tau.  For compact states the edge of
the evolved state follows the tent

    e(psi_t) = e(psi) + |t_e| - |t - t_e|

with a single change time t_e per direction; fitting the profile recovers
(e0, t_e) and certifies the law through the residual.  A late-change seed
carries its t_eb from the fit that balanced it, so the top-window truncation
checks its window against that t_eb without fitting the seed again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import boost_values, evolve_causal, evolve_times, time_reverse
from .errors import NoLateChangeSeed
from .field import RegionMask, SpinorField, site_density, translate

DEFAULT_EDGE_TOL = 1e-6

#: the soft lower edge: raised-cosine ramp width (length units), ramp/polish
#: cycles, and projection rounds per polish
_RAMP_WIDTH = 0.082
_SOFTEN_CYCLES = 4
_POLISH_ROUNDS = 3


@dataclass(frozen=True)
class TentFit:
    e0: float
    t_e: float
    residual: float

    def value(self, t):
        return self.e0 + abs(self.t_e) - np.abs(t - self.t_e)


def support_edge(field: SpinorField, e: int = +1, tau: float = DEFAULT_EDGE_TOL) -> float:
    """sup{alpha : (mass in {x e <= alpha}) / dx <= tau}, reported at a cell boundary: the entry of ``support_edges`` for e = +1 or -1."""
    if e not in (+1, -1):
        raise ValueError(f"direction e = {e} must be +1 or -1")
    return support_edges(field, tau)[0 if e > 0 else 1]


def support_edges(field: SpinorField, tau: float = DEFAULT_EDGE_TOL) -> tuple:
    """(support_edge along +e3, support_edge along -e3), both from one density pass, summed from either end.

    Each cell of the last axis (e3 in 3D) adds |psi|^2 dx^dim / dx (in 1D no
    dx enters): tau bounds a mass of tau dx, a unit state totals 1/dx.
    """
    if not 0.0 < tau <= 1e-2:
        raise ValueError("tau must lie in (0, 1e-2]")
    g = field.grid
    dens = site_density(field.values)
    if g.dim == 3:
        dens = dens.sum(axis=(0, 1))
    dens = dens * g.cell_measure("position") / g.dx
    total = float(dens.sum())
    if total <= tau:
        raise ValueError(f"total mass {total} <= tau = {tau}")
    # cells 0..j from either end have mass <= tau  ->  the boundary after cell j is still admissible
    cum = np.empty_like(dens)
    jp, jm = (int(np.searchsorted(np.cumsum(d, out=cum), tau, side="right")) for d in (dens, dens[::-1]))
    x = g.axis()
    return x[0] - g.dx / 2.0 + jp * g.dx, -(x[-1] + g.dx / 2.0) + jm * g.dx


def frontier_profile(field: SpinorField, times, tau: float = DEFAULT_EDGE_TOL) -> tuple:
    """(edges along +e3, edges along -e3) of the evolved state at each time.

    Both edges of each psi_t are read from one pass of ``evolve_times``: one
    guard check at max |t| (the guard grows with |t|) and one forward FFT
    serve every time, and each time is evolved once for the two directions
    (``support_edges``).
    """
    edges = []
    for psi_t in evolve_times(field, times):
        edges.append(support_edges(psi_t, tau))
        del psi_t  # freed before the stream writes the next time
    plus, minus = np.reshape(edges, (-1, 2)).T
    return plus, minus


def fit_tent(times, edges) -> TentFit:
    """Least-squares tent e0 + |t_e| - |t - t_e| through the frontier profile (times, edges).

    The kink position comes from a coarse argmax refined by intersecting the
    two fixed-slope branch lines; a global fit would be biased by grid smearing
    around the kink.  A time or edge that is not finite raises ValueError.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(edges, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("tent fit needs finite times and edges")
    if t.size < 5:
        raise ValueError("tent fit needs at least 5 time samples")
    order = np.argsort(t)
    t, y = t[order], y[order]
    k = int(np.argmax(y))
    best = None
    # the argmax cell is smeared; try kink on either side of it
    for split in (k, k + 1):
        left = slice(0, max(split, 2))
        right = slice(min(split, t.size - 2), t.size)
        if t[left].size < 2 or t[right].size < 2:
            continue
        b_left = float(np.mean(y[left] - t[left]))  # rising branch y = t + b
        b_right = float(np.mean(y[right] + t[right]))  # falling branch y = -t + b
        t_e = (b_right - b_left) / 2.0
        e0 = (b_right + b_left) / 2.0 - abs(t_e)
        res = float(np.max(np.abs(e0 + abs(t_e) - np.abs(t - t_e) - y)))
        if best is None or res < best.residual:
            best = TentFit(e0, t_e, res)
    if best is None:
        raise ValueError("tent fit needs samples on both slopes")
    return best


def fit_both_edges(field: SpinorField, times):
    """(TentFit along +e3, TentFit along -e3) from one two-edge frontier profile at DEFAULT_EDGE_TOL."""
    plus, minus = frontier_profile(field, times)
    return fit_tent(times, plus), fit_tent(times, minus)


def fit_times(field: SpinorField) -> np.ndarray:
    """Symmetric 17-point time grid spanning both tent slopes within the grid's guard margin."""
    lo, hi = field.support_bounds()
    g = field.grid
    margin = min(lo - g.axis()[0], g.axis()[-1] - hi)
    horizon = min(2.0 * (hi - lo), 0.95 * margin)
    return np.linspace(-horizon, horizon, 17)


def construct_prescribed_tent(psi1: SpinorField, tau_shift: float, delta: float, dates1):
    """Superpose psi1 with its time-shifted, space-shifted copy.

    psi = psi1 + W(delta e3) (psi1 evolved by tau);  the change times of psi
    follow the case analysis
        (i)   |tau| <= delta : t_e = t_e1,                t_eb = t_eb1 - tau
        (ii)  tau > delta    : t_e = t_e1 + (d-tau)/2,    t_eb = t_eb1 - (tau+d)/2
        (iii) -tau > delta   : t_e = t_e1 - (tau+d)/2,    t_eb = t_eb1 + (d-tau)/2
    with d = delta; delta < 0 raises ValueError, as the cases then overlap.
    Returns (normalized field, predicted t_e, predicted t_eb) from psi1's
    change times dates1 = (t_e1, t_eb1).
    """
    d = delta
    if not d >= 0.0:
        raise ValueError(f"delta = {d} must be >= 0")
    # (shift of t_e, shift of t_eb) per case
    if abs(tau_shift) <= d:
        moves = 0.0, -tau_shift
    elif tau_shift > d:
        moves = (d - tau_shift) / 2.0, -(tau_shift + d) / 2.0
    else:
        moves = -(tau_shift + d) / 2.0, (d - tau_shift) / 2.0
    shifted = translate(evolve_causal(psi1, tau_shift), delta)
    return (psi1 + shifted).normalized(), dates1[0] + moves[0], dates1[1] + moves[1]


def make_seed_with_dates(psi: SpinorField, target_t: float):
    """(eta, t_eb): a compact state with t_e = t_eb = target_t from a tent-zero seed, and its t_eb.

    First force t_e = t_eb = 0 by superposing a shifted evolved copy (case (i)
    with tau = t_eb - t_e, delta = |tau|, then a time shift), then evolve by
    -target_t so both change times move to target_t.

    When psi is already balanced (|t_eb - t_e| < dx), eta is psi evolved by
    s = t_e - target_t, and by the group law its t_eb is psi's fitted
    t_eb less s: returned, so that ``make_late_change_state`` need not fit eta
    again.  After a superposition the second item is None.
    """
    fp, fm = fit_both_edges(psi, fit_times(psi))
    tau = fm.t_e - fp.t_e
    if abs(tau) < psi.grid.dx:
        balanced, t_e, t_eb = psi, fp.t_e, fm.t_e
    else:
        balanced, t_e, _ = construct_prescribed_tent(
            psi, tau, abs(tau), dates1=(fp.t_e, fm.t_e)
        )
        t_eb = None
    # time translation moves both change times from t_e to 0, then to target_t
    s = t_e - target_t
    return evolve_causal(balanced, s), None if t_eb is None else t_eb - s


def make_late_change_state(
    eta: SpinorField,
    delta: float,
    sign: int = +1,
    dates=None,
):
    """Truncate a seed with positive t_eb to its top window of width delta.

    psi = E({-eb(eta) - delta <= x <= -eb(eta)}) eta, normalized; the result
    satisfies sign * t_eb(psi) >= (-eb(psi) - e(psi)) / 2 (a late-change state).
    For sign = -1 the positive construction runs first and the output is
    time-reversed, which flips the sign of t_eb while keeping both edges.
    dates is eta's t_eb, as ``make_seed_with_dates`` returns it; None fits it
    from a frontier profile of eta.
    """
    g = eta.grid
    t_eb = dates
    if t_eb is None:
        _, fm = fit_both_edges(eta, fit_times(eta))
        t_eb = fm.t_e
    if t_eb <= g.dx:
        raise NoLateChangeSeed(f"fitted t_eb = {t_eb:.4g} <= dx")
    if not 0.0 < delta < t_eb:
        raise NoLateChangeSeed(f"delta must lie in (0, t_eb = {t_eb:.4g})")
    top = -support_edge(eta, e=-1)
    window = RegionMask.strip(g, top - delta, top)
    psi = eta.apply_mask(window).normalized()
    if sign < 0:
        psi = time_reverse(psi)
    return psi


def recenter_lower_edge(field: SpinorField) -> SpinorField:
    """Translate so e(psi) = 0 (cell-exact roll)."""
    return translate(field, -support_edge(field, e=+1))


def project_late_change(field: SpinorField, alpha: float, sign: int = +1, work=None) -> SpinorField:
    """psi^alpha = W(sign*alpha) E({x <= alpha}) W(sign*alpha)^{-1} psi.

    For psi localized in {x >= 0}, psi^alpha is localized in {0 <= x <= 2 alpha}
    and converges to psi as alpha grows.  The fixed points satisfy
    (psi^alpha)_{-sign*alpha} in {x <= alpha}, so the output is a late-change
    state whose change time t_eb carries the sign -sign.

    psi^alpha lands in work[0], which may hold field's values.
    """
    out = evolve_causal(field, -sign * alpha, work=work)
    out = out.apply_mask(RegionMask.half_space(field.grid, alpha), out=out.values)
    return evolve_causal(out, sign * alpha, work=None if work is None else work[::-1])


def late_change_polish(field: SpinorField, alpha: float, work=None) -> SpinorField:
    """Alternate the late-change projection with the {0 <= x <= 2 alpha} mask.

    For a state with positive t_eb: the underlying projection runs with
    parameter -1.  Repeated application (_POLISH_ROUNDS rounds) converges onto
    the grid subspace whose states contract under positive boosts.  The
    result lands in work[0], which may hold field's values.
    """
    strip = RegionMask.strip(field.grid, 0.0, 2.0 * alpha)
    out = field.apply_mask(strip, out=None if work is None else work[0])
    for _ in range(_POLISH_ROUNDS):
        out = project_late_change(out, alpha, -1, work)
        out = out.normalized(out=out.values).apply_mask(strip, out=out.values)
    return out.normalized(out=out.values)


def soften_lower_edge(field: SpinorField, alpha: float) -> SpinorField:
    """Alternate a smooth lower-edge ramp with the late-change polish.

    The mask construction leaves an O(1) density step at the lower edge, which
    any band-limited evaluation smears over a cell.  Cycling a raised-cosine
    ramp (_RAMP_WIDTH in length units) with the subspace polish converges to a
    nearby late-change grid state whose edge profile is flat at a far smaller
    density, shrinking the discretization floor of boosted-strip probabilities
    by two orders of magnitude while keeping the evolution-side defect at
    rounding level.  The state has positive t_eb.  Every polish runs in one
    pair of (d, *sites) arrays.
    """
    g = field.grid
    x = g.axis()
    i0 = int(np.searchsorted(x, 0.0))
    k = max(12, int(round(_RAMP_WIDTH / g.dx)))
    ramp = np.ones(g.n)
    ramp[:i0] = 0.0
    ramp[i0 : i0 + k] = 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, k)))

    work = np.empty_like(field.values, dtype=complex), np.empty_like(field.values, dtype=complex)

    def ramped(state):  # the ramp is site-shaped: it scales every component
        return replace(state, values=np.multiply(state.values, ramp, out=work[0])).normalized(out=work[0])

    cur = ramped(field)
    for _ in range(_SOFTEN_CYCLES):
        cur = ramped(late_change_polish(cur, alpha, work))
    return late_change_polish(cur, alpha, work)


def strip_probability_boosted(field: SpinorField, rho: float, lo: float, hi: float) -> float:
    """Probability of the boosted state inside {lo <= x3 <= hi}.

    Sampled at the preimages of the grid nodes, x = y3 / cosh(rho), so every
    boost evaluation lands on a node of an exactly evolved grid state; the node
    sum with weight dx / cosh(rho) is then the discrete probability measure of
    the boosted field (exact at rho = 0, no interpolation ringing at a sharp
    support edge).  A non-finite rho, lo or hi, an empty strip (lo >= hi), or
    a strip that holds no sampling node, raises ValueError.
    """
    if not np.all(np.isfinite((rho, lo, hi))):
        raise ValueError(f"rho = {rho}, lo = {lo} and hi = {hi} must be finite")
    if lo >= hi:
        raise ValueError(f"strip [{lo}, {hi}] is empty: lo must be < hi")
    g = field.grid
    c = np.cosh(rho)
    y = g.axis()
    sel = (y > lo * c) & (y < hi * c)
    xs = y[sel] / c
    if xs.size == 0:
        raise ValueError(f"strip [{lo}, {hi}] holds no sampling node: the step dx / cosh(rho) is {g.dx / c:.4g}")
    vals = boost_values(field, rho, xs)
    dens = site_density(vals)
    return float(np.sum(dens) * g.dx / c)
