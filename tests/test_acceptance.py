"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Criteria run at desk scale (1D grids up to N = 32768, radial quadratures up
to 8193 nodes, one 10^7-sample Monte Carlo).
"""

import time

import numpy as np
import pytest

from causalfermion import algebra as al
from causalfermion import causalgeo as cg
from causalfermion import dynamics as dyn
from causalfermion import field as fd
from causalfermion import frontier as fr
from causalfermion import pol
from causalfermion import weylradial as wr

EPS_LEAK = fd.EPS_LEAK


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


# --- 1: tent law -----------------------------------------------------------


def test_criterion_01_tent_law():
    start = time.time()
    grid = fd.Grid(1, 2048, 18.0 / 2048)
    dx = grid.dx
    cases = []
    rng = np.random.default_rng(1)
    for i, m in enumerate([0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]):
        width = 0.6 + 0.1 * (i % 4)
        spinor = rng.normal(size=4) + 1j * rng.normal(size=4)
        mom = rng.uniform(-1.0, 1.0)
        cases.append(
            fd.make_bump(grid, rng.uniform(-0.4, 0.4), width, spinor, al.Dirac(m), momentum=mom)
        )
    for i in range(5):
        chi = +1 if i % 2 == 0 else -1
        spinor = rng.normal(size=2) + 1j * rng.normal(size=2)
        cases.append(
            fd.make_bump(grid, rng.uniform(-0.4, 0.4), 0.6 + 0.1 * i, spinor, al.Weyl(chi))
        )
    worst_resid = 0.0
    worst_minlaw = 0.0
    for psi in cases:
        lo, hi = psi.support_bounds()
        diam = hi - lo
        times = np.linspace(-2 * diam, 2 * diam, 17)
        fit_p, fit_m = fr.fit_both_edges(psi, times)
        worst_resid = max(worst_resid, fit_p.residual, fit_m.residual)
        e0 = fr.support_edge(psi, +1, 1e-6)
        for t in (0.5 * diam, diam):
            ep = fr.support_edge(dyn.evolve_causal(psi, t), +1, 1e-6)
            em = fr.support_edge(dyn.evolve_causal(psi, -t), +1, 1e-6)
            worst_minlaw = max(worst_minlaw, abs(min(ep, em) - (e0 - t)))
    elapsed = time.time() - start
    ok = worst_resid <= 2 * dx and worst_minlaw <= 2 * dx and elapsed <= 60.0
    _report(
        1,
        "tent law on 10 Dirac + 5 Weyl states",
        ok,
        f"residual {worst_resid:.2e} <= {2*dx:.2e}, min-law {worst_minlaw:.2e}, {elapsed:.0f}s",
    )


# --- 2: Lorentz contraction of late-change states ---------------------------


@pytest.fixture(scope="module")
def late_change_state():
    grid = fd.Grid(1, 32768, 14.0 / 32768)
    psi0 = fd.make_bump(grid, 0.0, 0.7, [1, 0.3, 1j, 0], al.Dirac(1.0), guard=3.3)
    eta, t_eb = fr.make_seed_with_dates(psi0, 1.5)
    psi = fr.recenter_lower_edge(fr.make_late_change_state(eta, 0.3, +1, dates=t_eb))
    alpha = (-fr.support_edge(psi, -1, 1e-6) - fr.support_edge(psi, +1, 1e-6)) / 2
    return fr.soften_lower_edge(psi, alpha), alpha


def test_criterion_02_boost_contraction(late_change_state):
    soft, alpha = late_change_state
    worst = worst_low = 0.0
    for rho in (0.5, 1.0, 2.0, 3.0):
        p_in = fr.strip_probability_boosted(soft, rho, 0.0, 2 * alpha * np.exp(-rho))
        worst = max(worst, 1.0 - p_in)
        if rho <= 2.0:
            worst_low = max(worst_low, 1.0 - p_in)
    p_strip = fr.strip_probability_boosted(soft, 3.0, -0.1, 0.1)
    ok = worst <= 1e-5 and worst_low <= 1e-6 and p_strip >= 0.999
    _report(
        2,
        "boosted late-change states stay in [0, 2a e^-rho]",
        ok,
        f"worst outside {worst:.2e} <= 1e-5 (rho <= 2: {worst_low:.2e} <= 1e-6), "
        f"strip p(rho=3, d=0.1) = {p_strip:.6f}",
    )


# --- 3: Weyl radial closed form vs spectral oracle ---------------------------


def _weyl_profile(width=1.5, second=0.4, nodes=4096):
    def g(r):
        prof = np.where(r < width, np.exp(-width**2 / np.maximum(width**2 - r * r, 1e-300)), 0.0)
        out = np.zeros(r.shape + (2,), dtype=complex)
        out[..., 0] = prof
        out[..., 1] = second * 1j * prof * np.cos(2.1 * r)
        return out

    return wr.RadialProfile.from_callable(g, width + 0.5, nodes).normalized()


@pytest.fixture(scope="module")
def weyl_profile():
    return _weyl_profile()


def test_criterion_03_weyl_radial_oracle(weyl_profile):
    profile = weyl_profile
    worst_cross = max(
        wr.crosscheck_against_spectral(profile, t) for t in (0.5, 1.0, 2.0)
    )
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(60, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= rng.uniform(0.3, 2.2, 60)[:, None]
    r = np.linalg.norm(pts, axis=1)
    a_plus, a_minus, _ = wr.radial_parts(profile, 0.8, r)
    worst_orth = 0.0
    for i in range(len(pts)):
        nhat = pts[i] / r[i]
        ap = al.Weyl(+1).projector(nhat, +1) @ a_plus[i]
        am = al.Weyl(+1).projector(nhat, -1) @ a_minus[i]
        worst_orth = max(worst_orth, abs(np.vdot(ap, am)))
    worst_b = 0.0
    for t in (0.5, 1.0, 2.0):
        na, nb, _ = wr.splitting_norms(wr.evolved_quadrature(profile, +1, t))
        ball = wr.ball_probability_static(profile, abs(t))
        worst_b = max(worst_b, abs(2 * na - (1 - ball)), abs(2 * nb - (1 + ball)))
    ok = worst_cross <= 1e-5 and worst_orth <= 1e-13 and worst_b <= 1e-6
    _report(
        3,
        "radial Weyl closed form",
        ok,
        f"crosscheck {worst_cross:.2e} <= 1e-5, orthogonality {worst_orth:.2e}, norm id {worst_b:.2e}",
    )


# --- 4: asymptotic ball probability ------------------------------------------


def test_criterion_04_asymptotic_ball(weyl_profile):
    profile = weyl_profile
    plus0, minus0 = wr.asymptotic_ball_probability(profile, (0, 0, 0), +1)
    centered_ok = abs(plus0 - 0.5) <= 1e-3 and abs(minus0 - 0.5) <= 1e-3
    rng = np.random.default_rng(4)
    bounds_ok = True
    for seed in range(40):
        b = rng.normal(size=3) * rng.uniform(0.2, 2.5)
        plus, minus = wr.asymptotic_ball_probability(profile, b, +1)
        bounds_ok &= 0.25 - 1e-9 <= plus <= 0.75 + 1e-9
        bounds_ok &= 0.25 - 1e-9 <= minus <= 0.75 + 1e-9
    c = 1.1
    plus_c, _ = wr.asymptotic_ball_probability(profile, (0.0, 0.0, -c), +1)
    sim = wr.ball_probability_evolved(wr.evolved_quadrature(profile, +1, 40.0), center=c)
    sim_ok = abs(sim - plus_c) <= 0.02
    slab = wr.slab_probability_evolved(wr.evolved_quadrature(profile, +1, 80.0), beta=0.7)
    slab_ok = slab >= 0.99
    ok = centered_ok and bounds_ok and sim_ok and slab_ok
    _report(
        4,
        "asymptotic ball and slab probabilities",
        ok,
        f"b=0: {plus0:.4f}, sim gap {abs(sim - plus_c):.3f} <= 0.02, slab(t=80) = {slab:.4f}",
    )


# --- 5: Dirac vs Weyl long-term contrast --------------------------------------


def test_criterion_05_long_term_contrast(weyl_profile):
    grid = fd.Grid(1, 8192, 220.0 / 8192)
    psi = fd.make_bump(grid, 0.0, 1.0, [1, 0.3, 1j, 0], al.Dirac(1.0), guard=105.0)
    t_big = 30.0
    ev = dyn.evolve_causal(psi, t_big)
    dirac_outer = ev.probability(~fd.RegionMask.strip(grid, -t_big, t_big))
    dirac_inner = dyn.evolve_causal(psi, 60.0).probability(fd.RegionMask.strip(grid, -1.0, 1.0))
    profile = weyl_profile
    weyl_outer = [1.0 - wr.ball_probability_evolved(wr.evolved_quadrature(profile, +1, t)) for t in (20.0, 40.0, 80.0)]
    weyl_inner = wr.ball_probability_evolved(wr.evolved_quadrature(profile, +1, 40.0), radius=0.5 * 40.0)
    ok = (
        dirac_outer <= 0.01
        and dirac_inner <= 0.01
        and all(w >= 0.23 for w in weyl_outer)
        and abs(weyl_outer[-1] - 0.5) <= 0.05
        and weyl_inner <= 0.01
    )
    _report(
        5,
        "Dirac outer decay vs Weyl outer persistence",
        ok,
        f"dirac outer(t=30) {dirac_outer:.4f} <= 0.01, inner(r=1, t=60) {dirac_inner:.4f}, "
        f"weyl outer {weyl_outer[-1]:.4f}, weyl inner(v=0.5) {weyl_inner:.2e}",
    )


# --- 6: POL cascade statistics -------------------------------------------------


def test_criterion_06_pol_statistics():
    grid = fd.Grid(3, 16, 8.0 / 16)
    ball = fd.RegionMask.ball(grid, (0, 0, 0), 1.0)
    worst_omega = worst_sigma = worst_conv = 0.0
    s2_lo, s2_hi = 1.0, 0.0
    for seed in range(50):
        phi = pol.random_positive_state(grid, al.Dirac(1.0), seed=500 + seed)
        stats = pol.measurement_cascade(phi, ball, depth=5)
        worst_omega = max(worst_omega, float(np.max(-np.diff(stats.omega), initial=0.0)))
        worst_sigma = max(worst_sigma, float(np.max(np.diff(stats.sigma), initial=0.0)))
        g = stats.gamma
        for k in range(1, 9):
            worst_conv = max(worst_conv, -(g[k - 1] * g[k + 1] - g[k] ** 2))
        s2 = stats.sigma2 + stats.sigma2_prime
        s2_lo, s2_hi = min(s2_lo, s2), max(s2_hi, s2)
    ok = (
        worst_omega <= 1e-12
        and worst_sigma <= 1e-12
        and worst_conv <= 1e-12
        and s2_lo >= 0.5 - 1e-12
        and s2_hi < 1.0
    )
    _report(
        6,
        "cascade monotonicity, moment inequality, pair probabilities (50 states)",
        ok,
        f"omega drop {worst_omega:.1e}, sigma rise {worst_sigma:.1e}, "
        f"convexity {worst_conv:.1e}, s2+s2' in [{s2_lo:.4f}, {s2_hi:.4f}]",
    )


# --- 7: energy growth ----------------------------------------------------------


def test_criterion_07_energy_growth():
    system = al.Dirac(1.0)
    k = np.linspace(0.0, 140.0, 8193)
    shell = pol.shell_state(system, k, 1.0, 2.0)
    rows, _ = pol.energy_growth(
        shell, [64], factory=lambda n: pol.shell_state(system, k, n * 1.0, n * 2.0)
    )
    target = 45.0 / 28.0
    rel = abs(rows[0][1] - target) / target
    ok = rel <= 0.02
    _report(7, "energy growth of the shell sequence", ok, f"(1/64)<H> = {rows[0][1]:.6f}, rel dev {rel:.2e} <= 0.02")


# --- 8: point localization -----------------------------------------------------


def test_criterion_08_point_localization():
    system = al.Dirac(1.0)
    k = np.linspace(0.0, 140.0, 8193)
    shell = pol.shell_state(system, k, 1.0, 2.0)
    radii = np.linspace(0.0, 10.0, 4097)
    phi64 = pol.point_localized_sequence(shell, 64.0)
    ball_val = pol.ball_expectation(phi64, 1.0, radii)
    neg = dict(pol.truncation_negative_fraction(shell, [64], 1.0, radii))[64.0]
    ok = ball_val >= 0.99 and neg <= 0.05
    _report(
        8,
        "point-localized sequence at n = 64",
        ok,
        f"<T(B1)> = {ball_val:.5f} >= 0.99, negative-energy fraction {neg:.4f} <= 0.05",
    )


# --- 9: Monte Carlo lattice constant -------------------------------------------


def test_criterion_09_monte_carlo():
    res = cg.monte_carlo_line_measure(
        cg.shrinking_ball_predicate, (-1, -1, -1), (1, 1, 1), 10_000_000, seed=20260809
    )
    z = res.z_score(cg.SHRINKING_BALL_MEASURE)

    def hits_origin(x, v):
        return np.all(x == 0.0, axis=1)

    zero = cg.monte_carlo_line_measure(hits_origin, (-1, -1, -1), (1, 1, 1), 1_000_000, seed=2)
    d1 = cg.DiamondRegion(1.0, (0, 0, 0), 1.0)
    far = cg.DiamondRegion(0.0, (9.0, 0, 0), 1.0)
    sep = cg.monte_carlo_line_measure(
        lambda x, v: cg.hits_all([d1, far], x, v), (-1, -1, -1), (1, 1, 1), 200_000, seed=3
    )
    ok = abs(z) <= 3.0 and zero.hits == 0 and sep.hits == 0
    _report(
        9,
        "timelike-line measure 4 pi^2/45 within 3 sigma at N = 10^7",
        ok,
        f"estimate {res.estimate:.6f} (target {cg.SHRINKING_BALL_MEASURE:.6f}), z = {z:+.2f}, "
        f"meet-measure hits {zero.hits}, spacelike hits {sep.hits}",
    )


# --- 10: exact geometry and lattice identities ----------------------------------


def test_criterion_10_exact_geometry():
    I, R = cg.Interval, cg.LightconeRegion
    checks = []
    d = cg.influence_ball((1.0, 2.0, 3.0), 2.0)
    checks.append(d.center == (1.0, 2.0, 3.0) and d.radius == 2.0)
    b = cg.influence_boosted_point((0, 0, 1.0), 1.0)
    checks.append(b.center == (0.0, 0.0, np.cosh(1.0)) and b.radius == np.sinh(1.0))
    checks.append(cg.influence_strip(0.0, 1.4, 1.0) == (0.0, 1.4 * np.exp(1.0)))
    prof = cg.influence_cylinder(1.0, 1.0, 2.0, 1.0)
    checks.append(
        prof["P1"] == (1.0, 0.0, np.exp(-1.0)) and prof["P4"] == (1.0, 0.0, 2.0 * np.exp(1.0))
    )
    lhs = R.h(I.le(1.0)).intersect(R.k(I.gt(2.0))).perp()
    checks.append(lhs.equals(R.h(I.gt(1.0)).intersect(R.k(I.le(2.0)))))
    alpha, delta = 0.5, 2.0
    diamond = R.h(I.ge(alpha)).intersect(R.k(I.le(delta)))
    checks.append(cg.spacelike_ray_perp(alpha, delta, -1, False).equals(diamond))
    L = R.h(I.lt(0.0)).intersect(R.k(I.gt(2.0)))
    M = R.h(I.lt(0.0)).intersect(R.k(I.gt(0.0)))
    wit = cg.join(L, M.perp()).intersect(M)
    checks.append(wit.equals(M) and not wit.equals(L))
    got = R.rect(I.ge(0.0), I.le(0.0)).perp_ntl()
    want = R.rect(I.le(0.0), I.ge(0.0)).subtract(R.point(0.0, 0.0))
    checks.append(got.equals(want))
    ok = all(checks)
    _report(10, "closed forms and lattice identities exact", ok, f"{sum(checks)}/8 identities")


# --- 11: acausal foil ------------------------------------------------------------


def test_criterion_11_acausal_foil():
    grid = fd.Grid(1, 2048, 16.0 / 2048)
    psi = fd.make_bump(grid, 0.0, 1.0, [1, 0.3, 1j, 0], al.Dirac(1.0), guard=3.0)
    causal_leak, nw_leak, _ = dyn.newton_wigner_leak(psi, 1.0)
    ok = causal_leak <= EPS_LEAK and nw_leak >= 100 * EPS_LEAK
    _report(
        11,
        "Newton-Wigner foil leaks, causal evolution does not",
        ok,
        f"causal {causal_leak:.2e} <= {EPS_LEAK:.0e}, foil {nw_leak:.2e} >= 1e-06",
    )
