import tracemalloc

import numpy as np
import pytest

from causalfermion import algebra as al
from causalfermion import cli
from causalfermion import dynamics as dyn
from causalfermion import field as fd
from causalfermion import frontier as fr
from causalfermion.errors import GuardViolation, NoLateChangeSeed

TAU = 1e-6

NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])


@pytest.fixture(scope="module")
def bump():
    grid = fd.Grid(1, 4096, 24.0 / 4096)
    return fd.make_bump(grid, 0.0, 1.0, [1, 0.3, 1j, 0], al.Dirac(1.0), guard=5.0)


@pytest.fixture(scope="module")
def bump_times(bump):
    return np.linspace(-4.0, 4.0, 17)


@pytest.fixture(scope="module")
def bump_fits(bump, bump_times):
    return fr.fit_both_edges(bump, bump_times)


@pytest.fixture(scope="module")
def late_change():
    grid = fd.Grid(1, 8192, 14.0 / 8192)
    psi0 = fd.make_bump(grid, 0.0, 0.7, [1, 0.3, 1j, 0], al.Dirac(1.0), guard=3.3)
    eta, t_eb = fr.make_seed_with_dates(psi0, 1.5)
    psi = fr.recenter_lower_edge(fr.make_late_change_state(eta, 0.3, +1, dates=t_eb))
    alpha = (-fr.support_edge(psi, -1, TAU) - fr.support_edge(psi, +1, TAU)) / 2
    soft = fr.soften_lower_edge(psi, alpha)
    return eta, psi, soft, alpha


class TestSupportEdge:
    def test_bump_edges(self, bump):
        # tau-mass edges sit inside the exact support by O(w / ln(1/tau))
        lo = fr.support_edge(bump, +1, TAU)
        hi = -fr.support_edge(bump, -1, TAU)
        assert -1.0 <= lo <= -0.85
        assert 0.85 <= hi <= 1.0

    def test_translation_covariance(self, bump):
        lam = 32 * bump.grid.dx
        shifted = fd.translate(bump, lam)
        assert abs(fr.support_edge(shifted, +1, TAU) - fr.support_edge(bump, +1, TAU) - lam) <= bump.grid.dx

    def test_monotone_in_tau(self, bump):
        assert fr.support_edge(bump, +1, 1e-4) >= fr.support_edge(bump, +1, 1e-8)

    def test_multicomponent_minimum(self):
        # e(psi) = min over components: two disjoint bumps on different components
        grid = fd.Grid(1, 2048, 16.0 / 2048)
        a = fd.make_bump(grid, -2.0, 0.8, [1, 0, 0, 0], al.Dirac(1.0))
        b = fd.make_bump(grid, 2.0, 0.8, [0, 1, 0, 0], al.Dirac(1.0))
        both = (a + b).normalized()
        e_both = fr.support_edge(both, +1, TAU)
        e_a = fr.support_edge(a, +1, 2 * TAU)  # halved weight in the sum
        assert abs(e_both - e_a) <= 2 * grid.dx

    def test_all_mass_below_tolerance(self, bump):
        with pytest.raises(ValueError, match=r"^total mass .* <= tau = 0\.001$"):
            fr.support_edge(bump * 1e-5, +1, 1e-3)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_each_edge_is_an_entry_of_support_edges(self, dim):
        grid = fd.Grid(1, 4096, 24.0 / 4096) if dim == 1 else fd.Grid(3, 16, 0.5)
        psi = fd.make_bump(grid, (0.3,) * dim, 1.5, [1, 0.3, 1j, 0], al.Dirac(1.0))
        plus, minus = fr.support_edges(psi, TAU)
        assert fr.support_edge(psi, +1, TAU).tobytes() == plus.tobytes()
        assert fr.support_edge(psi, -1, TAU).tobytes() == minus.tobytes()

    @pytest.mark.parametrize("e", [0, 2, -2])
    def test_direction_must_be_plus_or_minus_one(self, bump, e):
        # unchecked, e = 0 read as -1 and e = 2 as +1
        with pytest.raises(ValueError, match=rf"^direction e = {e} must be \+1 or -1$"):
            fr.support_edge(bump, e, TAU)


class TestFrontierProfile:
    def test_single_time(self, bump):
        plus, minus = fr.frontier_profile(bump, [0.0], tau=TAU)
        assert plus[0] == fr.support_edge(bump, +1, TAU)
        assert minus[0] == fr.support_edge(bump, -1, TAU)

    def test_one_guard_per_profile_and_the_guarded_edges(self, bump, bump_times, monkeypatch):
        guards = []
        check = dyn.check_guard
        monkeypatch.setattr(dyn, "check_guard", lambda field, horizon: guards.append(horizon) or check(field, horizon))
        plus, minus = fr.frontier_profile(bump, bump_times, tau=TAU)
        assert guards == [4.0]
        evolved = [dyn.evolve_causal(bump, float(t)) for t in bump_times]
        assert np.array_equal(plus, [fr.support_edge(psi_t, +1, TAU) for psi_t in evolved])
        assert np.array_equal(minus, [fr.support_edge(psi_t, -1, TAU) for psi_t in evolved])

    @NON_FINITE
    def test_non_finite_time_raises(self, bump, bad):
        # unchecked, a nan time passed the guard and read an edge of -6.0
        with pytest.raises(ValueError, match="must be finite"):
            fr.frontier_profile(bump, [0.0, bad, 1.0, 2.0, 3.0], tau=TAU)

    def test_guard_raises_before_any_evolution(self, bump, monkeypatch):
        evolved = []
        monkeypatch.setattr(dyn, "evolution_multiplier_apply", lambda *args, **kw: evolved.append(args[1]))
        # the times up to 4 are within the guard; 20 is not
        with pytest.raises(GuardViolation):
            fr.frontier_profile(bump, [0.0, 1.0, 4.0, -20.0], tau=TAU)
        assert evolved == []

    def test_peak_memory_of_a_two_edge_profile(self):
        # the stream holds phi, h(p) phi and one psi_t at a time, never a (times, sites, d) stack:
        # six (2^14, 4) complex arrays bound the peak, a 17-time stack alone is 17 of them
        grid = fd.Grid(1, 2**14, 24.0 / 2**14)
        psi = fd.make_bump(grid, 0.0, 1.0, [1, 0.3, 1j, 0], al.Dirac(1.0), guard=5.0)
        times = np.linspace(-4.0, 4.0, 17)
        tracemalloc.start()
        try:
            fr.frontier_profile(psi, times, tau=TAU)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * psi.values.nbytes, peak

    def test_causal_slope_bound(self, bump, bump_times):
        edges = fr.frontier_profile(bump, bump_times, tau=TAU)[0]
        dt = bump_times[1] - bump_times[0]
        assert np.all(np.abs(np.diff(edges)) <= dt + 2 * bump.grid.dx)

    def test_min_law(self, bump):
        e0 = fr.support_edge(bump, +1, TAU)
        for t in (0.5, 1.0, 2.0):
            ep = fr.support_edge(dyn.evolve_causal(bump, t), +1, TAU)
            em = fr.support_edge(dyn.evolve_causal(bump, -t), +1, TAU)
            assert abs(min(ep, em) - (e0 - t)) <= 2 * bump.grid.dx

    def test_upper_bound(self, bump):
        e0 = fr.support_edge(bump, +1, TAU)
        eb0 = fr.support_edge(bump, -1, TAU)
        for t in (0.5, 1.5):
            ep = fr.support_edge(dyn.evolve_causal(bump, t), +1, TAU)
            assert ep <= -2 * eb0 - e0 - t + 2 * bump.grid.dx


class TestTentFit:
    def test_residual_within_two_cells(self, bump, bump_times, bump_fits):
        fit_p, fit_m = bump_fits
        assert fit_p.residual <= 2 * bump.grid.dx
        assert fit_m.residual <= 2 * bump.grid.dx

    def test_time_shift_moves_change_time(self, bump, bump_times, bump_fits):
        fit_p, _ = bump_fits
        tau_shift = 0.8
        shifted = dyn.evolve_causal(bump, tau_shift)
        fit2 = fr.fit_tent(bump_times, fr.frontier_profile(shifted, bump_times, tau=TAU)[0])
        dt = bump_times[1] - bump_times[0]
        assert abs(fit2.t_e - (fit_p.t_e - tau_shift)) <= 2 * dt

    def test_time_reversal_flips_change_time(self, bump, bump_times, bump_fits):
        fit_p, _ = bump_fits
        fit_rev = fr.fit_tent(
            bump_times, fr.frontier_profile(dyn.time_reverse(bump), bump_times, tau=TAU)[0]
        )
        dt = bump_times[1] - bump_times[0]
        assert abs(fit_rev.t_e + fit_p.t_e) <= 2 * dt

    @NON_FINITE
    def test_non_finite_time_or_edge_raises(self, bad):
        # unchecked, a nan time gave a nan fit
        times = np.linspace(-2.0, 2.0, 9)
        edges = 1.0 - np.abs(times)
        for t, y in ((np.where(times == 0.5, bad, times), edges), (times, np.where(times == 0.5, bad, edges))):
            with pytest.raises(ValueError, match="^tent fit needs finite times and edges$"):
                fr.fit_tent(t, y)

    def test_insufficient_samples(self, bump):
        times = [0.0, 0.5, 1.0]
        edges = fr.frontier_profile(bump, times, tau=TAU)[0]
        with pytest.raises(ValueError, match="tent fit needs at least 5 time samples"):
            fr.fit_tent(times, edges)


class TestPrescribedTent:
    def test_case_i_predictions(self, bump, bump_times, bump_fits):
        fit_p, fit_m = bump_fits
        psi, t_e, t_eb = fr.construct_prescribed_tent(
            bump, -0.5, 0.7, dates1=(fit_p.t_e, fit_m.t_e)
        )
        new_p, new_m = fr.fit_both_edges(psi, bump_times)
        dt = bump_times[1] - bump_times[0]
        assert abs(new_p.t_e - t_e) <= 2 * dt
        assert abs(new_m.t_e - t_eb) <= 2 * dt

    def test_zero_shift_keeps_dates(self, bump, bump_fits):
        fit_p, fit_m = bump_fits
        psi, t_e, t_eb = fr.construct_prescribed_tent(
            bump, 0.0, 0.0, dates1=(fit_p.t_e, fit_m.t_e)
        )
        assert t_e == fit_p.t_e and t_eb == fit_m.t_e
        # psi = 2 psi1 normalized
        assert (psi - bump).norm() <= 1e-12

    def test_balanced_construction_zeroes_dates(self, bump, bump_times):
        balanced, _ = fr.make_seed_with_dates(bump, 0.9)
        fp, fm = fr.fit_both_edges(balanced, bump_times)
        dt = bump_times[1] - bump_times[0]
        assert abs(fp.t_e - 0.9) <= 2 * dt
        assert abs(fm.t_e - 0.9) <= 2 * dt

    @pytest.mark.parametrize("tau_shift", [1.2, -1.2])
    def test_case_ii_and_iii_predictions(self, bump, bump_times, bump_fits, tau_shift):
        # delta = 0.5 < |tau|: case (ii) for tau > 0, case (iii) for tau < 0
        fit_p, fit_m = bump_fits
        psi, t_e, t_eb = fr.construct_prescribed_tent(
            bump, tau_shift, 0.5, dates1=(fit_p.t_e, fit_m.t_e)
        )
        new_p, new_m = fr.fit_both_edges(psi, bump_times)
        dt = bump_times[1] - bump_times[0]
        assert abs(new_p.t_e - t_e) <= 2 * dt
        assert abs(new_m.t_e - t_eb) <= 2 * dt

    @pytest.mark.parametrize("system, spinor", [
        (al.Dirac(1.0), [1, 0.3, 1j, 0]), (al.Dirac(0.0), [1, 0.3, 1j, 0]),
        (al.Weyl(+1), [1, 1j]), (al.Weyl(-1), [1, 1j]),
    ], ids=["dirac1", "dirac0", "weyl+", "weyl-"])
    def test_balanced_seed_returns_its_t_eb(self, system, spinor):
        # psi already has t_e = t_eb: the seed is psi evolved by a known time, and the t_eb it
        # returns (psi's, moved by that time) is what a fit of the seed reads, to a cell
        grid = fd.Grid(1, 4096, 14.0 / 4096)
        psi0 = fd.make_bump(grid, 0.0, 0.7, spinor, system, guard=3.3)
        eta, t_eb = fr.make_seed_with_dates(psi0, 1.5)
        _, fm = fr.fit_both_edges(eta, fr.fit_times(eta))
        assert t_eb is not None and abs(t_eb - fm.t_e) <= grid.dx

    def test_superposed_seed_is_fitted(self):
        # t_e and t_eb two cells apart: the seed is a superposition, its t_eb is not returned, and
        # make_late_change_state fits it (a window past the fitted t_eb ~ 1.5 is refused)
        grid = fd.Grid(1, 4096, 14.0 / 4096)
        psi0 = fd.make_bump(grid, 0.0, 0.7, [1, 0.3], al.Weyl(+1), guard=3.3)
        eta, t_eb = fr.make_seed_with_dates(psi0, 1.5)
        assert t_eb is None
        _, fm = fr.fit_both_edges(eta, fr.fit_times(eta))
        assert abs(fm.t_e - 1.5) <= 2 * grid.dx
        assert abs(fr.make_late_change_state(eta, 0.3, +1, dates=t_eb).norm() - 1.0) <= 1e-12
        with pytest.raises(NoLateChangeSeed):
            fr.make_late_change_state(eta, 1.6, +1, dates=t_eb)

    def test_mass_scaling_of_change_time(self):
        # t_e at mass lam*m equals (1/lam) t_e of the dilated state at mass m
        lam = 1.25
        grid = fd.Grid(1, 2048, 20.0 / 2048)
        spinor = [1, 0.3, 1j, 0]
        psi_m = fd.make_bump(grid, 0.3, 1.0, spinor, al.Dirac(lam * 1.0), momentum=0.8)
        times = np.linspace(-4.0, 4.0, 17)
        fit_heavy = fr.fit_tent(times, fr.frontier_profile(psi_m, times, tau=TAU)[0])
        # D_lam phi(p) = lam^{1/2} phi(lam p) is psi(x / lam) / lam^{1/2}: the bump scaled by lam in closed form
        dilated = fd.make_bump(grid, 0.3 * lam, 1.0 * lam, spinor, al.Dirac(1.0), momentum=0.8 / lam)
        fit_dil = fr.fit_tent(
            lam * times, fr.frontier_profile(dilated.normalized(), lam * times, tau=TAU)[0]
        )
        dt = times[1] - times[0]
        assert abs(fit_heavy.t_e - fit_dil.t_e / lam) <= 2 * dt

    @pytest.mark.parametrize("delta", [-0.5, float("nan")])
    def test_delta_below_zero_or_nan_raises(self, bump, delta):
        # below 0 the three case conditions overlap
        with pytest.raises(ValueError, match=r"^delta = .* must be >= 0$"):
            fr.construct_prescribed_tent(bump, 0.2, delta, dates1=(0.0, 0.0))


class TestLateChange:
    def test_window_edges(self, late_change):
        # recentred state: e(psi) = 0 and width at most the window delta = 0.3
        _, psi, _, _ = late_change
        lo = fr.support_edge(psi, +1, TAU)
        hi = -fr.support_edge(psi, -1, TAU)
        assert abs(lo) <= 2 * psi.grid.dx
        assert lo < hi <= 0.3 + 2 * psi.grid.dx

    def test_fitted_change_time_late(self, late_change):
        _, psi, _, alpha = late_change
        times = fr.fit_times(psi)
        _, fm = fr.fit_both_edges(psi, times)
        dt = times[1] - times[0]
        assert fm.t_e >= alpha - 2 * dt

    def test_evolution_side_characterization(self, late_change):
        # psi_alpha localized in {x <= alpha} up to the leak budget
        _, _, soft, alpha = late_change
        ev = dyn.evolve_causal(soft, alpha)
        above = ~fd.RegionMask.half_space(soft.grid, alpha)
        assert ev.probability(above) <= 1e-8

    def test_boost_contraction(self, late_change):
        _, _, soft, alpha = late_change
        for rho in (0.5, 1.0, 2.0):
            hi = 2.0 * alpha * np.exp(-rho)
            p = fr.strip_probability_boosted(soft, rho, 0.0, hi)
            assert 1.0 - p <= 1e-5

    def test_boost_contraction_reversed_sign(self, late_change):
        # time reversal maps the subspace exactly: the reversed state
        # contracts under negative rapidities
        _, _, soft, alpha = late_change
        rev = dyn.time_reverse(soft)
        for rho in (-0.5, -1.0, -2.0):
            p = fr.strip_probability_boosted(rev, rho, 0.0, 2 * alpha * np.exp(rho))
            assert 1.0 - p <= 1e-5

    def test_polish_computes_one_pair_of_rows(self, late_change):
        # every polish round evolves by -alpha and back by +alpha: two multiplier rows, the rest read from the cache
        _, psi, _, alpha = late_change
        dyn._evolution_rows.cache_clear()
        fr.late_change_polish(psi, alpha)
        info = dyn._evolution_rows.cache_info()
        assert (info.misses, info.hits) == (2, 2 * fr._POLISH_ROUNDS - 2)

    def test_needs_positive_change_time(self, bump):
        with pytest.raises(NoLateChangeSeed):
            fr.make_late_change_state(bump, 0.5, +1, dates=0.0)

    def test_sign_flip_uses_time_reversal(self, late_change):
        eta, _, _, _ = late_change
        psi_minus = fr.make_late_change_state(eta, 0.3, -1)
        times = fr.fit_times(psi_minus)
        _, fm = fr.fit_both_edges(psi_minus, times)
        assert fm.t_e < 0


@pytest.fixture(scope="module", params=[(1.0, 4096), (0.0, 4096), (1.0, 8192), (0.0, 8192)],
                ids=["m1-4096", "m0-4096", "m1-8192", "m0-8192"])
def cli_late_change(request):
    """(psi, alpha): the CLI's late-change state before its soft lower edge, and its polish parameter."""
    mass, n = request.param
    cfg = cli.resolve_config("contract", None, [f"n={n}", f"mass={mass}"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fr, "soften_lower_edge", lambda psi, alpha: psi)
        _, psi, alpha = cli._build_late_change(cfg)
    return psi, alpha


def stepwise_polish(field, alpha):
    """The late-change polish step by step through evolve_causal, apply_mask and normalized, each step a new field."""
    strip = fd.RegionMask.strip(field.grid, 0.0, 2.0 * alpha)
    half = fd.RegionMask.half_space(field.grid, alpha)
    out = field
    for _ in range(fr._POLISH_ROUNDS):
        # the projection with parameter -1: W(-alpha) E({x <= alpha}) W(-alpha)^{-1}
        out = dyn.evolve_causal(dyn.evolve_causal(out.apply_mask(strip), alpha).apply_mask(half), -alpha)
        out = out.normalized()
    return out.apply_mask(strip).normalized()


def stepwise_soften(field, alpha):
    """soften_lower_edge step by step, through stepwise_polish."""
    g = field.grid
    i0 = int(np.searchsorted(g.axis(), 0.0))
    k = max(12, int(round(fr._RAMP_WIDTH / g.dx)))
    ramp = np.ones(g.n)
    ramp[:i0] = 0.0
    ramp[i0 : i0 + k] = 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, k)))
    cur = (field * ramp).normalized()
    for _ in range(fr._SOFTEN_CYCLES):
        cur = (stepwise_polish(cur, alpha) * ramp).normalized()
    return stepwise_polish(cur, alpha)


class TestLateChangeInPlace:
    """The polish and the soft edge run in two reused arrays, with the bits of the stepwise chain."""

    def test_soften_matches_stepwise_oracle(self, cli_late_change):
        psi, alpha = cli_late_change
        kept = psi.values.copy()
        got = fr.soften_lower_edge(psi, alpha)
        assert got.values.tobytes() == stepwise_soften(psi, alpha).values.tobytes()
        assert np.array_equal(psi.values, kept)

    def test_polish_and_projection_match_stepwise_oracle(self, cli_late_change):
        psi, alpha = cli_late_change
        kept = psi.values.copy()
        assert fr.late_change_polish(psi, alpha).values.tobytes() == stepwise_polish(psi, alpha).values.tobytes()
        half = fd.RegionMask.half_space(psi.grid, alpha)
        want = dyn.evolve_causal(dyn.evolve_causal(psi, alpha).apply_mask(half), -alpha)
        assert fr.project_late_change(psi, alpha, -1).values.tobytes() == want.values.tobytes()
        assert np.array_equal(psi.values, kept)

    def test_guard_checks_every_evolution_input(self, cli_late_change, monkeypatch):
        psi, alpha = cli_late_change
        guards = []
        check = dyn.check_guard
        monkeypatch.setattr(dyn, "check_guard", lambda field, horizon: guards.append(horizon) or check(field, horizon))
        fr.soften_lower_edge(psi, alpha)
        assert guards == [alpha] * 2 * fr._POLISH_ROUNDS * (fr._SOFTEN_CYCLES + 1)

    def test_given_pair_or_none_give_the_bits_and_the_pair_takes_the_result(self, cli_late_change):
        psi, alpha = cli_late_change
        for run in (lambda work: fr.project_late_change(psi, alpha, -1, work),
                    lambda work: fr.late_change_polish(psi, alpha, work)):
            want = run(None).values
            work = np.empty_like(psi.values), np.empty_like(psi.values)
            got = run(work)
            assert got.values is work[0]
            assert got.values.tobytes() == want.tobytes()

    def test_peak_memory_of_soften(self, cli_late_change):
        # two (d, n) work arrays and O(n) rows (ramp, masks, densities, the multiplier's plane); the
        # stepwise chain read 7.05 states (one state is psi's (4, n) complex values).  The +-alpha
        # multiplier rows are cached before the trace: a bounded two-entry table, not the call's
        psi, alpha = cli_late_change
        fr.soften_lower_edge(psi, alpha)
        tracemalloc.start()
        try:
            fr.soften_lower_edge(psi, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * psi.values.nbytes, peak / psi.values.nbytes


@pytest.fixture(scope="module")
def slow_state():
    # heavy, slow momentum band: the cut mass of psi_{-alpha} above alpha is
    # the mass faster than 1 - hi/alpha, so convergence needs a state whose
    # velocity spread is small
    grid = fd.Grid(1, 8192, 222.0 / 8192)
    return fd.make_bump(grid, 5.2, 5.0, [1, 0.3, 1j, 0], al.Dirac(5.0))


class TestProjectLateChange:
    def test_distance_decreases_and_converges(self, slow_state):
        psi = slow_state
        dists = []
        for alpha in (6.0, 12.0, 24.0, 48.0):
            out = fr.project_late_change(psi, alpha, +1)
            dists.append((psi - out).norm())
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 1e-3

    def test_output_localized_in_double_strip(self, slow_state):
        psi = slow_state
        alpha = 12.0
        out = fr.project_late_change(psi, alpha, +1).normalized()
        strip = fd.RegionMask.strip(psi.grid, -3 * psi.grid.dx, 2 * alpha + 3 * psi.grid.dx)
        # the masked intermediate state is no longer smooth, so the leak sits
        # above the smooth-state budget but still far below physical scales
        assert out.probability(~strip) <= 1e-6

    def test_output_is_late_change_fixed_point(self, slow_state):
        # the projection output with parameter +1 satisfies the evolution-side
        # characterization for the opposite sign: psi^a_{-a} in {x <= a}
        psi = slow_state
        alpha = 12.0
        out = fr.project_late_change(psi, alpha, +1).normalized()
        ch = dyn.evolve_causal(out, -alpha)
        assert ch.probability(~fd.RegionMask.half_space(psi.grid, alpha)) <= 1e-12


class TestIsotropicLateTime:
    def test_isotropic_late_time_expansion(self):
        grid = fd.Grid(1, 4096, 40.0 / 4096)
        psi = fd.make_bump(grid, 0.0, 1.0, [1, 0.2, 0.7j, 0.1], al.Dirac(1.0), guard=8.0)
        r = 1.0
        for e in (+1, -1):
            e2r = fr.support_edge(dyn.evolve_causal(psi, 2 * r), e, TAU)
            for t in (2.5, 3.5, 5.0):
                et = fr.support_edge(dyn.evolve_causal(psi, t), e, TAU)
                assert abs(et - (e2r + 2 * r - t)) <= 2 * grid.dx

    def test_change_time_bound_chain(self, bump, bump_times, bump_fits):
        fit_p, fit_m = bump_fits
        dt = bump_times[1] - bump_times[0]
        e0 = fr.support_edge(bump, +1, TAU)
        eb0 = fr.support_edge(bump, -1, TAU)
        # (a) e(psi_t) <= -eb(psi) - |t - t_e| + 2dx
        for t in (-1.0, 0.5, 2.0):
            et = fr.support_edge(dyn.evolve_causal(bump, t), +1, TAU)
            assert et <= -eb0 - abs(t - fit_p.t_e) + 2 * bump.grid.dx
        # (b) |t_e| + |t_eb| <= -eb - e + 4 dt
        assert abs(fit_p.t_e) + abs(fit_m.t_e) <= -eb0 - e0 + 4 * dt


class TestContractionScan:
    def test_baseline_and_trend(self, late_change):
        _, _, soft, alpha = late_change
        probs = {rho: fr.strip_probability_boosted(soft, rho, -0.1, 0.1) for rho in (0.0, 1.0, 3.0)}
        assert probs[0.0] < 0.9  # baseline: state wider than the strip
        assert probs[3.0] >= 0.999

    @pytest.mark.parametrize("args", [(np.nan, -0.1, 0.1), (np.inf, -0.1, 0.1), (1.0, np.nan, 0.1),
                                      (1.0, -0.1, np.nan), (1.0, -np.inf, 0.1), (1.0, -0.1, np.inf)],
                             ids=["rho-nan", "rho-inf", "lo-nan", "hi-nan", "lo-inf", "hi-inf"])
    def test_non_finite_input_raises(self, bump, args, monkeypatch):
        # unchecked, a NaN rapidity or edge selects no node and reads a probability of 0.0
        boosts = []
        monkeypatch.setattr(fr, "boost_values", lambda *a: boosts.append(1))
        with pytest.raises(ValueError, match=r"^rho = .*, lo = .* and hi = .* must be finite$"):
            fr.strip_probability_boosted(bump, *args)
        assert boosts == []

    @pytest.mark.parametrize("lo, hi", [(0.3, -0.3), (0.2, 0.2)], ids=["reversed", "zero-width"])
    def test_empty_strip_raises(self, bump, lo, hi, monkeypatch):
        # unchecked, an empty strip selects no node and reads a probability of 0.0
        boosts = []
        monkeypatch.setattr(fr, "boost_values", lambda *a: boosts.append(1))
        with pytest.raises(ValueError, match=r"^strip \[.*\] is empty: lo must be < hi$"):
            fr.strip_probability_boosted(bump, 0.5, lo, hi)
        assert boosts == []

    def test_strip_between_sampling_nodes_raises(self, monkeypatch):
        # unchecked, a nonempty strip narrower than the sampling step read a probability of 0.0
        grid = fd.Grid(1, 1024, 16.0 / 1024)
        psi = fd.make_bump(grid, 0.0, 1.0, [1, 0, 0, 0], al.Dirac(1.0))
        boosts = []
        monkeypatch.setattr(fr, "boost_values", lambda *a: boosts.append(1))
        with pytest.raises(ValueError, match=r"^strip \[0\.001, 0\.005\] holds no sampling node: "
                                             r"the step dx / cosh\(rho\) is 0\.01386$"):
            fr.strip_probability_boosted(psi, 0.5, 0.001, 0.005)
        assert boosts == []

    def test_symmetric_state_symmetric_trend(self):
        # T-symmetric state: p(rho) = p(-rho)
        grid = fd.Grid(1, 2048, 16.0 / 2048)
        psi = fd.make_bump(grid, 0.0, 1.0, [1, 0, 0, 0], al.Dirac(1.0), guard=3.0)
        sym = (psi + dyn.time_reverse(psi) * (-1j)).normalized()
        p_plus = fr.strip_probability_boosted(sym, 0.7, -0.5, 0.5)
        p_minus = fr.strip_probability_boosted(sym, -0.7, -0.5, 0.5)
        assert abs(p_plus - p_minus) <= 1e-9
