import os
import sys
import threading

import numpy as np
import pytest

from causalfermion import causalgeo as cg
from causalfermion.causalgeo import Interval as I
from causalfermion.causalgeo import LightconeRegion as R

rng = np.random.default_rng(71)


def random_region(r):
    rects = []
    for _ in range(r.integers(1, 4)):
        a, b = np.sort(r.uniform(-3, 3, 2))
        c, d = np.sort(r.uniform(-3, 3, 2))
        rects.append(
            cg.Rect(
                I(a, b, bool(r.integers(2)), bool(r.integers(2))),
                I(c, d, bool(r.integers(2)), bool(r.integers(2))),
            )
        )
    return R(rects)


class TestIntervalAlgebra:
    def test_flags_matter(self):
        assert I(0, 1, True, False).intersect(I.point(0.0)).empty
        assert not I(0, 1, False, True).intersect(I.point(0.0)).empty
        assert not I(1, 1).intersect(I.point(1.0)).empty
        assert I(1, 1, lo_open=True).empty

    def test_subtract_flags(self):
        pieces = I(0, 2).subtract(I(1, 1))
        assert len(pieces) == 2
        assert pieces[0].hi == 1 and pieces[0].hi_open
        assert pieces[1].lo == 1 and pieces[1].lo_open

    def test_above_below_flip_flags(self):
        assert I(0, 1, False, True).above() == I(1, np.inf, False, True)
        assert I(0, 1, False, False).above() == I(1, np.inf, True, True)


class TestLatticeIdentities:
    def test_fhs_complement_rule(self):
        for le, gt in ((I.le, I.gt), (I.lt, I.ge)):
            lhs = R.h(le(1.0)).intersect(R.k(gt(2.0))).perp()
            rhs = R.h(gt(1.0)).intersect(R.k(le(2.0)))
            assert lhs.equals(rhs)

    def test_single_halfspace_complement_empty(self):
        assert R.h(I.le(0.5)).perp().is_empty
        assert R.k(I.gt(-1.0)).perp().is_empty

    def test_same_side_intersection_complement_empty(self):
        assert R.h(I.lt(0.0)).intersect(R.k(I.le(1.0))).perp().is_empty

    def test_two_point_completion(self):
        s = 2.0
        two = R.point(0.0, 0.0).union(R.point(s, s))
        assert two.completion().equals(R.rect(I(0.0, s), I(0.0, s)))

    def test_completion_properties_random(self):
        for seed in range(40):
            reg = random_region(np.random.default_rng(seed))
            comp = reg.completion()
            assert reg.subtract(comp).is_empty  # R subset R^
            assert comp.completion().equals(comp)  # idempotent
            assert reg.perp().equals(comp.perp())  # R^perp = (R^)^perp

    def test_de_morgan_random(self):
        for seed in range(40):
            r = np.random.default_rng(1000 + seed)
            a, b = random_region(r), random_region(r)
            assert a.union(b).perp().equals(a.perp().intersect(b.perp()))

    def test_orthomodularity_failure_witness(self):
        L = R.h(I.lt(0.0)).intersect(R.k(I.gt(2.0)))
        M = R.h(I.lt(0.0)).intersect(R.k(I.gt(0.0)))
        assert L.subtract(M).is_empty  # L subset M
        assert L.perp().intersect(M).is_empty
        witness = cg.join(L, M.perp()).intersect(M)
        assert witness.equals(M)
        assert not witness.equals(L)

    def test_diamond_flat_base(self):
        alpha, delta = 0.5, 2.0
        diamond = R.h(I.ge(alpha)).intersect(R.k(I.le(delta)))
        assert diamond.perp().equals(R.h(I.lt(alpha)).intersect(R.k(I.gt(delta))))
        # base {x0 = (d+a)/2, x3 <= (d-a)/2} is the ray (a, d) + s(1, -1), s >= 0
        assert cg.spacelike_ray_perp(alpha, delta, +1, True).equals(diamond.perp())
        # sigma minus base: open ray the other way; its complement is the diamond
        assert cg.spacelike_ray_perp(alpha, delta, -1, False).equals(diamond)

    def test_halfplane_ntl_completion(self):
        got = R.rect(I.ge(0.0), I.le(0.0)).perp_ntl()
        want = R.rect(I.le(0.0), I.ge(0.0)).subtract(R.point(0.0, 0.0))
        assert got.equals(want)

    def test_perp_vs_perp_ntl_on_open_regions(self):
        for seed in range(20):
            r = np.random.default_rng(2000 + seed)
            a, b = np.sort(r.uniform(-3, 3, 2))
            c, d = np.sort(r.uniform(-3, 3, 2))
            reg = R.rect(I(a, b, True, True), I(c, d, True, True))
            strict = reg.perp()
            ntl = reg.perp_ntl()
            # perp is contained in perp'; they differ only on boundary lines
            assert strict.subtract(ntl).is_empty

    def test_meet_join_de_morgan(self):
        L = R.h(I.lt(0.0)).intersect(R.k(I.gt(2.0)))
        M = R.h(I.ge(1.0)).intersect(R.k(I.le(0.0)))
        lhs = L.intersect(M).perp()
        rhs = cg.join(L.perp(), M.perp())
        assert lhs.equals(rhs)


class TestInfluenceClosedForms:
    def test_ball(self):
        d = cg.influence_ball((1.0, 2.0, 3.0), -2.0)
        assert d.center == (1.0, 2.0, 3.0) and d.radius == 2.0
        assert cg.influence_ball((0, 0, 0), 0.0).radius == 0.0

    def test_boosted_point(self):
        d = cg.influence_boosted_point((0.0, 0.0, 1.0), 1.0)
        assert abs(d.center[2] - np.cosh(1.0)) <= 1e-15
        assert abs(d.radius - np.sinh(1.0)) <= 1e-15
        assert cg.influence_boosted_point((3.0, -1.0, 0.0), 2.0).radius == 0.0
        # rho -> -rho leaves the descriptor unchanged
        assert cg.influence_boosted_point((0, 0, 1.0), -1.0) == d

    def test_strip(self):
        lo, hi = cg.influence_strip(0.0, 1.4, 1.0)
        assert lo == 0.0 and abs(hi - 1.4 * np.e) <= 1e-14
        assert cg.influence_strip(0.5, 1.0, 0.0) == (0.5, 1.0)
        lo1, hi1 = cg.influence_strip(0.5, 1.0, 0.5)
        lo2, hi2 = cg.influence_strip(0.5, 1.0, 1.0)
        assert lo2 <= lo1 and hi1 <= hi2  # nesting
        # an end below 0 moves away from 0, for either sign of rho
        lo, hi = cg.influence_strip(0.0, 2.0, 1.0)
        assert lo == 0.0 and abs(hi - 2.0 * np.e) <= 1e-14
        lo, hi = cg.influence_strip(-1.0, 2.0, -1.0)
        assert abs(lo + np.e) <= 1e-14 and abs(hi - 2.0 * np.e) <= 1e-14
        assert np.allclose(cg.influence_strip(-2.0, -1.0, 1.0), (-2.0 * np.e, -1.0 / np.e), rtol=1e-15, atol=0)
        with pytest.raises(ValueError):
            cg.influence_strip(1.0, 0.5, 1.0)

    def test_cylinder_corners(self):
        c, a, b, rho = 1.0, 1.0, 2.0, 1.0
        prof = cg.influence_cylinder(c, a, b, rho)
        assert np.allclose(prof["P1"], (1.0, 0.0, np.exp(-1.0)))
        assert np.allclose(prof["P2"], (1.0 + np.tanh(1.0), 0.0, 1.0 / np.cosh(1.0)))
        assert np.allclose(prof["P3"], (1.0 + 2 * np.tanh(1.0), 0.0, 2.0 / np.cosh(1.0)))
        assert np.allclose(prof["P4"], (1.0, 0.0, 2.0 * np.exp(1.0)))
        assert np.allclose(prof["arc_high"]["center"], (1.0, 0.0, 2 * np.cosh(1.0)))

    def test_cylinder_inside_circumscribed_ball_influence(self):
        c, a, b, rho = 1.0, 1.0, 2.0, 1.0
        prof = cg.influence_cylinder(c, a, b, rho)
        center = (0.0, 0.0, (a + b) / 2)
        radius = np.sqrt(c**2 + ((b - a) / 2) ** 2)
        for key in ("P1", "P2", "P3", "P4"):
            assert in_boosted_ball_influence(prof[key], center, radius, rho)
        # points along the straight flank
        for frac in np.linspace(0, 1, 7):
            pt = (1 - frac) * np.array(prof["P2"]) + frac * np.array(prof["P3"])
            assert in_boosted_ball_influence(pt, center, radius, rho)
        assert not in_boosted_ball_influence((0.0, 0.0, 20.0), center, radius, rho)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan])
    def test_cylinder_needs_positive_radius(self, c):
        # c <= 0 is False for NaN, so the check must be not c > 0
        with pytest.raises(ValueError, match=r"^cylinder needs 0 <= a < b and c > 0$"):
            cg.influence_cylinder(c, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("a, b", [(-1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (np.nan, 2.0), (1.0, np.nan)],
                             ids=["a-below-0", "a-above-b", "a-equals-b", "nan-a", "nan-b"])
    def test_cylinder_needs_ordered_heights(self, a, b):
        with pytest.raises(ValueError, match=r"^cylinder needs 0 <= a < b and c > 0$"):
            cg.influence_cylinder(1.0, a, b, 1.0)


def in_boosted_ball_influence(x, center, radius, rho):
    """Oracle: whether x lies in the influence region of the boosted ball (center, radius).

    The influence is the union over ball points y of balls around (y1, y2, cosh(rho) y3) with
    radius |sinh(rho) y3|; minimized over the ball cross-section through x (400 heights times
    40 transverse offsets along x_perp; rotational symmetry around e3).
    """
    x, c = np.asarray(x, dtype=float), np.asarray(center, dtype=float)
    y3 = np.linspace(c[2] - radius, c[2] + radius, 400)[:, None]
    s = np.sqrt(np.maximum(radius**2 - (y3 - c[2]) ** 2, 0.0))
    xp = x[:2] - c[:2]
    xp_norm = np.linalg.norm(xp)
    u = xp / xp_norm if xp_norm > 0 else np.array([1.0, 0.0])
    yp = c[:2] + (np.linspace(-1.0, 1.0, 40) * s)[..., None] * u  # (400, 40, 2)
    dist = np.sqrt(np.sum((x[:2] - yp) ** 2, axis=-1) + (x[2] - np.cosh(rho) * y3) ** 2)
    return np.min(dist - np.abs(np.sinh(rho) * y3)) <= 1e-9


def ternary_hits_all(diamonds, lines_x, lines_v):
    """Oracle for hits_all: 60-step ternary search on the convex gap f(s) in lockstep.

    f(s) = |s - c| + |x + s v - a| - r; a line hits iff min f <= 1e-10.
    """
    n = lines_x.shape[0]
    ok = np.ones(n, dtype=bool)
    for d in diamonds:
        a = np.asarray(d.a, dtype=float)

        def f(s):
            return np.abs(s - d.c) + np.linalg.norm(lines_x + s[:, None] * lines_v - a, axis=1) - d.r

        # the minimizer lies within |s - c| <= r + |x + c v - a| of the apex time
        span = d.r + np.linalg.norm(lines_x + d.c * lines_v - a, axis=1) + 1.0
        lo, hi = d.c - span, d.c + span
        for _ in range(60):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            smaller = f(m1) < f(m2)
            hi = np.where(smaller, m2, hi)
            lo = np.where(smaller, lo, m1)
        ok &= f(0.5 * (lo + hi)) <= 1e-10
    return ok


def random_lines(count):
    xs = rng.uniform(-1.2, 1.2, (count, 3))
    ds = rng.normal(size=(count, 3))
    ds /= np.linalg.norm(ds, axis=1)[:, None]
    return xs, ds * rng.random(count)[:, None] ** (1 / 3)


def hits_one(diamond, x, v) -> bool:
    """hits_all on the 1-row batch of the line (x, v)."""
    return bool(cg.hits_all([diamond], np.array([x], dtype=float), np.array([v], dtype=float))[0])


class TestLineHits:
    def test_through_apex(self):
        d = cg.DiamondRegion(1.0, (0, 0, 0), 1.0)
        assert hits_one(d, (0, 0, 0), (0, 0, 0))

    def test_static_far_line_misses(self):
        d = cg.DiamondRegion(1.0, (0, 0, 0), 1.0)
        assert not hits_one(d, (10, 0, 0), (0, 0, 0))

    def test_boundary_grazing_resolved_with_tolerance(self):
        d = cg.DiamondRegion(1.0, (0, 0, 0), 1.0)
        # static line tangent to the base sphere: min gap exactly 0
        assert hits_one(d, (1.0, 0, 0), (0, 0, 0))
        assert not hits_one(d, (1.0 + 1e-6, 0, 0), (0, 0, 0))

    def test_vectorized_matches_scalar(self):
        # closed form against the ternary-search oracle, and 1-row batches against the full batch
        diamonds = [
            cg.DiamondRegion(1.0, (0, 0, 0), 1.0),
            cg.DiamondRegion(-1.0, (0, 0, 0), 1.0),
            cg.DiamondRegion(0.3, (0.2, -0.1, 0.4), 0.8),
        ]
        xs, vs = random_lines(3000)
        for d in diamonds:
            batch = cg.hits_all([d], xs, vs)
            assert 0 < batch.sum() < batch.size
            assert np.array_equal(batch, ternary_hits_all([d], xs, vs))
            for i in range(0, 3000, 97):
                assert hits_one(d, xs[i], vs[i]) == batch[i]
        assert np.array_equal(cg.hits_all(diamonds, xs, vs), ternary_hits_all(diamonds, xs, vs))

    def test_hit_set_closed_form(self):
        # lines meeting both unit diamonds: max(|x+v|, |x-v|) <= 1
        d1 = cg.DiamondRegion(1.0, (0, 0, 0), 1.0)
        d2 = cg.DiamondRegion(-1.0, (0, 0, 0), 1.0)
        xs, vs = random_lines(2000)
        batch = cg.hits_all([d1, d2], xs, vs)
        oracle = cg.diamond_pair_predicate(xs, vs)
        # disagreement only possible within the hit-test tolerance of the boundary
        gap = np.abs(np.maximum(np.linalg.norm(xs + vs, axis=1), np.linalg.norm(xs - vs, axis=1)) - 1.0)
        assert np.all((batch == oracle) | (gap <= 1e-9))


class TestMonteCarlo:
    def test_deterministic_under_seed(self):
        res1 = cg.monte_carlo_line_measure(
            cg.shrinking_ball_predicate, (-1, -1, -1), (1, 1, 1), 100_000, seed=5
        )
        res2 = cg.monte_carlo_line_measure(
            cg.shrinking_ball_predicate, (-1, -1, -1), (1, 1, 1), 100_000, seed=5
        )
        assert res1.estimate == res2.estimate and res1.stderr == res2.stderr

    def test_shrinking_ball_constant(self):
        res = cg.monte_carlo_line_measure(
            cg.shrinking_ball_predicate, (-1, -1, -1), (1, 1, 1), 400_000, seed=9
        )
        assert abs(res.z_score(cg.SHRINKING_BALL_MEASURE)) <= 3.0

    def test_diamond_pair_exact_measure(self):
        # dual route: ternary-search hit test (no closed form) against the analytic 2 pi^2/9
        d1 = cg.DiamondRegion(1.0, (0, 0, 0), 1.0)
        d2 = cg.DiamondRegion(-1.0, (0, 0, 0), 1.0)
        res = cg.monte_carlo_line_measure(
            lambda x, v: ternary_hits_all([d1, d2], x, v), (-1, -1, -1), (1, 1, 1), 200_000, seed=13
        )
        assert abs(res.z_score(cg.DIAMOND_PAIR_MEASURE)) <= 3.0

    def test_spacelike_separated_no_hits(self):
        d1 = cg.DiamondRegion(1.0, (0, 0, 0), 1.0)
        far = cg.DiamondRegion(0.0, (8.0, 0, 0), 1.0)
        res = cg.monte_carlo_line_measure(
            lambda x, v: cg.hits_all([d1, far], x, v), (-1, -1, -1), (1, 1, 1), 100_000, seed=17
        )
        assert res.hits == 0 and res.estimate == 0.0

    def test_meet_of_diamond_pair_has_zero_measure(self):
        # M meet' L = {origin}: a line meets it only if x = 0 exactly
        def hits_origin(x, v):
            return np.all(x == 0.0, axis=1)

        res = cg.monte_carlo_line_measure(hits_origin, (-1, -1, -1), (1, 1, 1), 100_000, seed=19)
        assert res.hits == 0 and res.estimate == 0.0

    def test_stderr_scaling(self):
        errs = []
        for n in (50_000, 200_000, 800_000):
            res = cg.monte_carlo_line_measure(
                cg.shrinking_ball_predicate, (-1, -1, -1), (1, 1, 1), n, seed=23
            )
            errs.append(res.stderr)
        # quadrupling samples roughly halves the standard error
        assert 1.4 <= errs[0] / errs[1] <= 2.9
        assert 1.4 <= errs[1] / errs[2] <= 2.9


def serial_line_measure(predicate, box_lo, box_hi, n_samples, seed, strata):
    """The one-shard-at-a-time loop the threaded shards replaced: their oracle."""
    box_lo = np.asarray(box_lo, dtype=float)
    box_hi = np.asarray(box_hi, dtype=float)
    vol = float(np.prod(box_hi - box_lo)) * (4.0 * np.pi / 3.0)
    per = n_samples // strata
    means = []
    total_hits = 0
    for shard in range(strata):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, shard]))
        x = box_lo + (box_hi - box_lo) * rng.random((per, 3))
        d = rng.normal(size=(per, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        v = d * rng.random(per)[:, None] ** (1.0 / 3.0)
        hit = predicate(x, v)
        total_hits += int(np.sum(hit))
        means.append(float(np.mean(hit)))
    means = np.array(means)
    p = float(np.mean(means))
    var_of_mean = float(np.var(means, ddof=1) / strata) if strata > 1 else p * (1 - p) / per
    return cg.MonteCarloResult(
        estimate=vol * p,
        stderr=vol * float(np.sqrt(var_of_mean)),
        hits=total_hits,
        samples=per * strata,
    )


class TestThreadedShards:
    # 263_147 is odd, 2 mod 3 and 11 mod 16, and no shard size it gives is a
    # multiple of the row block; 1_003 leaves every shard below one block
    @pytest.mark.parametrize("n_samples", [263_147, 1_003])
    @pytest.mark.parametrize("strata", [1, 2, 3, 16])
    @pytest.mark.parametrize("predicate", [cg.shrinking_ball_predicate, cg.diamond_pair_predicate])
    def test_equals_serial_oracle_for_any_worker_count(self, predicate, strata, n_samples, monkeypatch):
        assert (n_samples // strata) % cg.MC_BLOCK_ROWS != 0
        box = ((-1.0, -0.5, -1.0), (1.0, 1.5, 0.75))
        want = serial_line_measure(predicate, *box, n_samples, seed=41, strata=strata)
        for workers in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
            threads = set()

            def counted(x, v):
                threads.add(threading.current_thread())
                return predicate(x, v)

            got = cg.monte_carlo_line_measure(counted, *box, n_samples, seed=41, strata=strata)
            assert got == want, (workers, got, want)
            assert len(threads) == min(strata, workers)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # each worker writes only its own shards' hit counts; a lost or crossed
        # write would change hits and the shard-order statistics
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        want = serial_line_measure(cg.diamond_pair_predicate, (-1, -1, -1), (1, 1, 1), 200_003, seed=43, strata=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = cg.monte_carlo_line_measure(
                cg.diamond_pair_predicate, (-1, -1, -1), (1, 1, 1), 200_003, seed=43, strata=16
            )
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_predicate_exception_reaches_the_caller(self, where, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller = threading.get_ident()
        before = threading.active_count()

        def failing(x, v):
            if (threading.get_ident() == caller) == (where == "caller"):
                raise ZeroDivisionError("predicate failed")
            return cg.shrinking_ball_predicate(x, v)

        with pytest.raises(ZeroDivisionError, match="predicate failed"):
            cg.monte_carlo_line_measure(failing, (-1, -1, -1), (1, 1, 1), 40_000, seed=3, strata=4)
        assert threading.active_count() == before


def test_row_norms_bit_identical_to_linalg_norm():
    r = np.random.default_rng(29)
    scaled = r.uniform(-1.0, 1.0, (2000, 3)) * 10.0 ** r.integers(-150, 150, (2000, 1))
    for a in (r.normal(size=(62_500, 3)), r.random((5, 3)), scaled, np.zeros((3, 3)), np.empty((0, 3))):
        assert np.array_equal(cg._row_norms(a), np.linalg.norm(a, axis=1))
