import functools

import numpy as np
import pytest

from causalfermion import cli, field as fd
from causalfermion import weylradial as wr
from causalfermion.algebra import SIGMA, sinc, weyl_projector
from causalfermion.errors import NotEvenlySpaced, OriginSingular

rng = np.random.default_rng(41)


def bump_profile(width=1.5, second=0.4):
    def g(r):
        prof = np.where(r < width, np.exp(-width**2 / np.maximum(width**2 - r * r, 1e-300)), 0.0)
        out = np.zeros(r.shape + (2,), dtype=complex)
        out[..., 0] = prof
        out[..., 1] = second * 1j * prof * np.cos(2.1 * r)
        return out

    return g


def dense_sine_transform_at(profile, s):
    """Oracle: u~(s) = sqrt(2/pi) sum_r w r g sin(s r) as the dense Simpson sum, chunked over s."""
    r = profile.r
    u = r[:, None] * profile.g
    w = wr.simpson_weights(r.size, profile.dr)
    out = np.empty((s.size, 2), dtype=complex)
    for start in range(0, s.size, 512):
        block = s[start : start + 512]
        out[start : start + block.size] = np.sqrt(2.0 / np.pi) * ((np.sin(np.outer(block, r)) * w) @ u)
    return out


def dense_band(profile, band_tol=1e-13):
    """Oracle: sine_transform_profile's s grid, with the band edge found on the dense probe."""
    probe_max = 0.5 * np.pi / profile.dr
    probe = np.linspace(0.0, probe_max, 2049)
    amp = np.sum(np.abs(dense_sine_transform_at(profile, probe)) ** 2, axis=1)
    edge = probe[np.nonzero(amp > band_tol**2 * amp.max())[0][-1]]
    return np.linspace(0.0, min(1.25 * edge + 1.0, probe_max), profile.r.size)


def dense_spectral_evolve(t, radii, s, ut):
    """Oracle: spectral_evolve's (u, v) at any radii by dense sine and cosine sums of u~ over s."""
    ws = wr.simpson_weights(s.size, s[1] - s[0])
    coef = np.sqrt(2.0 / np.pi)
    f_cos = (np.cos(t * s)[:, None] * ut) * ws[:, None]
    f_sin = (np.sin(t * s)[:, None] * ut) * ws[:, None]
    f_snc = (t * sinc(t * s)[:, None] * ut) * ws[:, None]
    u_out = np.empty((radii.size, 2), dtype=complex)
    v_out = np.empty((radii.size, 2), dtype=complex)
    for start in range(0, radii.size, 512):
        r_blk = radii[start : start + 512]
        sin_m = np.sin(np.outer(r_blk, s))
        cos_m = np.cos(np.outer(r_blk, s))
        u_out[start : start + r_blk.size] = coef * (sin_m @ f_cos) / r_blk[:, None]
        v_out[start : start + r_blk.size] = coef * (
            (cos_m @ f_sin) / r_blk[:, None] - (sin_m @ f_snc) / (r_blk**2)[:, None]
        )
    return u_out, v_out


@functools.lru_cache(maxsize=None)
def spectral_case(nodes):
    """(profile, s grid, u~ on it), all dense, for the bump profile on the given node count."""
    prof = wr.RadialProfile.from_callable(bump_profile(), 2.0, nodes).normalized()
    s = dense_band(prof)
    return prof, s, dense_sine_transform_at(prof, s)


@pytest.fixture(scope="module")
def profile():
    return wr.RadialProfile.from_callable(bump_profile(), 2.0, 4096).normalized()


class TestClosedFormStructure:
    def test_t_zero_reduces_to_profile(self, profile):
        radii = np.linspace(0.05, 1.9, 300)
        a_plus, a_minus, rho = wr.radial_parts(profile, 0.0, radii)
        assert np.max(np.abs(rho)) == 0.0
        u, v = wr.scalar_vector_parts(profile, 0.0, radii)
        assert np.max(np.abs(u - profile.g_at(radii))) <= 1e-12
        assert np.max(np.abs(v)) <= 1e-12

    def test_pointwise_orthogonality(self, profile):
        pts = rng.normal(size=(100, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= rng.uniform(0.3, 2.5, 100)[:, None]
        r = np.linalg.norm(pts, axis=1)
        a_plus, a_minus, _ = wr.radial_parts(profile, 0.7, r)
        for i in range(len(pts)):
            nhat = pts[i] / r[i]
            ap = weyl_projector(nhat, +1, +1) @ a_plus[i]
            am = weyl_projector(nhat, +1, -1) @ a_minus[i]
            assert abs(np.vdot(ap, am)) <= 1e-13

    def test_origin_excluded(self, profile):
        with pytest.raises(OriginSingular):
            wr.radial_parts(profile, 0.5, np.array([profile.dr / 8]))

    def test_norm_identity_b(self, profile):
        for t in (0.5, 1.0, 3.0):
            na, nb, _ = wr.splitting_norms(wr.evolved_quadrature(profile, +1, t))
            ball = wr.ball_probability_static(profile, abs(t))
            assert abs(2 * na - (1.0 - ball)) <= 1e-6
            assert abs(2 * nb - (1.0 + ball)) <= 1e-6

    def test_ball_capture_split_c(self, profile):
        for t in (0.8, 2.0):
            lhs = wr.ball_capture_split(profile, t, -1)
            assert abs(lhs - 0.5 * wr.ball_probability_static(profile, t)) <= 1e-6

    def test_remainder_decays(self, profile):
        norms = [wr.splitting_norms(wr.evolved_quadrature(profile, +1, t))[2] for t in (10.0, 20.0, 40.0)]
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] <= 0.05

    def test_ball_probability_approaches_half(self, profile):
        vals = [wr.ball_probability_evolved(wr.evolved_quadrature(profile, +1, t)) for t in (5.0, 10.0, 20.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 0.5) <= 0.02


def split_interp(profile, table, radii, right):
    """Oracle: the (n, 2) complex table at |radii| by separate real and imaginary np.interp calls."""
    rq = np.abs(radii)
    out = np.zeros(rq.shape + (2,), dtype=complex)
    for c in range(2):
        re = np.interp(rq, profile.r, table[:, c].real, right=right[c].real)
        out[..., c] = re + 1j * np.interp(rq, profile.r, table[:, c].imag, right=right[c].imag)
    return out


def per_call_moments(profile, chi, t):
    """Oracle: (r, w, a, b) rebuilt by each caller, as every ball and slab probability once did."""
    r_max = profile.r_max + abs(t)
    r = np.linspace(0.0, r_max, wr.DEFAULT_NODES + 1)
    r[0] = profile.dr / 2.0
    w = wr.simpson_weights(r.size, r_max / wr.DEFAULT_NODES)
    u, v = wr.scalar_vector_parts(profile, t, r)
    a = np.sum(np.abs(u) ** 2 + np.abs(v) ** 2, axis=1)
    b = 2.0 * chi * np.real(np.einsum("ni,ij,nj->n", np.conj(u), SIGMA[2], v))
    return r, w, a, b


def per_call_xi_integral(r, w, a, b, x0, x1):
    width = np.maximum(x1 - x0, 0.0)
    second = np.where(width > 0.0, (x1**2 - x0**2) / 2.0, 0.0)
    return float(2.0 * np.pi * np.sum(w * r**2 * (a * width + b * second)))


def per_call_ball(profile, chi, t, center=0.0, radius=None):
    rad = abs(t) if radius is None else radius
    r, w, a, b = per_call_moments(profile, chi, t)
    if center == 0.0:
        cum = wr.cumulative_simpson(r**2 * a, float(r[-1] - r[-2]))
        return float(4.0 * np.pi * np.interp(rad, r, cum))
    lo = np.clip((r**2 + center**2 - rad**2) / (2.0 * r * center), -1.0, 1.0)
    ones = np.ones_like(r)
    x0, x1 = (lo, ones) if center > 0 else (-ones, lo)
    return per_call_xi_integral(r, w, a, b, x0, x1)


def per_call_slab(profile, chi, t, beta=0.0):
    r, w, a, b = per_call_moments(profile, chi, t)
    x0 = np.clip((beta - abs(t)) / r, -1.0, 1.0)
    x1 = np.clip((beta + abs(t)) / r, -1.0, 1.0)
    return per_call_xi_integral(r, w, a, b, x0, x1)


def per_call_splitting(profile, t):
    r_max = profile.r_max + abs(t)
    r = np.linspace(0.0, r_max, wr.DEFAULT_NODES + 1)
    r[0] = profile.dr / 2.0
    w = wr.simpson_weights(r.size, r_max / wr.DEFAULT_NODES)
    rho = wr.radial_parts(profile, t, r)[2]
    norm_r = float(4.0 * np.pi * np.sum(w * r**2 * np.sum(np.abs(rho) ** 2, axis=1)))
    rr = np.linspace(0.0, r_max, wr.DEFAULT_NODES + 1)
    w_rr = wr.simpson_weights(rr.size, r_max / wr.DEFAULT_NODES)
    shifted = [rr + s * t for s in (+1, -1)]
    dens = [np.sum(np.abs(profile.g_at(x)) ** 2, axis=1) for x in shifted]
    na, nb = (float(2.0 * np.pi * np.sum(w_rr * x**2 * d)) for x, d in zip(shifted, dens))
    return na, nb, norm_r


class TestSharedQuadrature:
    """One evolved_quadrature per (profile, chi, t) gives what each output once rebuilt for itself."""

    def test_complex_interp_equals_split_interp(self, profile):
        # profile nodes, points between them, and points beyond r_max (g = 0, G = its total there)
        radii = np.concatenate([profile.r, -profile.r[::7], rng.uniform(0.0, 6.0, 5000), [2.0, 2.5, 40.0]])
        for got, table, right in ((profile.g_at(radii), profile.g, np.zeros(2, complex)),
                                  (profile.G_at(radii), profile.G, profile.G[-1])):
            want = split_interp(profile, table, radii, right)
            assert np.array_equal(got, want)
            # bits differ only where the split form's re + 1j im turns a -0.0 real part into +0.0
            differ = got.view(np.uint64) != want.view(np.uint64)
            assert np.all(got.view(float)[differ] == 0.0)

    @pytest.mark.parametrize("chi", [+1, -1])
    @pytest.mark.parametrize("t", [0.0, 0.5, -1.0, 2.0, 20.0])
    def test_outputs_equal_per_call_values(self, profile, chi, t):
        q = wr.evolved_quadrature(profile, chi, t)
        assert wr.splitting_norms(q) == per_call_splitting(profile, t)
        assert wr.ball_probability_evolved(q) == per_call_ball(profile, chi, t)
        for center, radius in ((0.0, 0.7), (1.1, None), (-0.6, 1.3), (0.4, 2.5)):
            want = per_call_ball(profile, chi, t, center=center, radius=radius)
            assert wr.ball_probability_evolved(q, center=center, radius=radius) == want
        for beta in (0.0, 0.7, -1.2):
            assert wr.slab_probability_evolved(q, beta=beta) == per_call_slab(profile, chi, t, beta=beta)

    def test_default_radial_run_evaluates_the_closed_form_once_per_time(self, monkeypatch, tmp_path):
        # 6 default times, plus one evaluation in the spectral crosscheck
        calls = []
        parts = wr.radial_parts
        monkeypatch.setattr(wr, "radial_parts", lambda *a: calls.append(a[1]) or parts(*a))
        assert cli.main(["radial", "--out", str(tmp_path)]) == cli.EXIT_OK
        assert calls == [*cli.SCHEMAS["radial"]["times"][1], 1.0]


class TestSpectralCrosscheck:
    def test_smooth_compact_tolerances(self, profile):
        assert wr.crosscheck_against_spectral(profile, +1, 0.0) <= 1e-12
        for t in (0.5, 1.0, 2.0):
            assert wr.crosscheck_against_spectral(profile, +1, t) <= 1e-5

    def test_second_order_convergence(self):
        errs = {}
        for n in (1024, 2048, 4096):
            prof = wr.RadialProfile.from_callable(bump_profile(), 2.0, n).normalized()
            errs[n] = wr.crosscheck_against_spectral(prof, +1, 1.0)
        assert errs[2048] <= errs[1024] / 3.5
        assert errs[4096] <= errs[2048] / 3.5

    def test_other_chirality(self, profile):
        assert wr.crosscheck_against_spectral(profile, -1, 1.0) <= 1e-5


class TestSpectralRouteAgainstDense:
    """The nufft1 sine transform and Bessel sums against the dense sums they replaced."""

    @pytest.mark.parametrize("nodes", [1024, 2048, 4096])
    def test_forward_transform_and_band_edge(self, nodes):
        prof, s_dense, ut_dense = spectral_case(nodes)
        probe = np.linspace(0.0, 0.5 * np.pi / prof.dr, 2049)
        s, ut = wr.sine_transform_profile(prof)
        assert s[-1] == s_dense[-1] and s.size == s_dense.size
        cases = ((wr._sine_transform_at(prof, probe), dense_sine_transform_at(prof, probe)), (ut, ut_dense))
        for fast, want in cases:
            assert np.max(np.abs(fast - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("nodes", [1024, 2048, 4096])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, -1.0])
    def test_evolve_matches_dense(self, nodes, t):
        prof, s_dense, ut_dense = spectral_case(nodes)
        # the crosscheck's radii: dr/2 off the even grid, then 2048 even steps
        radii = np.linspace(0.0, prof.r_max + abs(t) + 1.0, 2049)
        radii[0] = prof.dr / 2.0
        # every row up to 128 (the direct rows end by row 12 here), then every 9th and the last
        idx = np.unique(np.r_[0:128, 128 : radii.size : 9, radii.size - 1])
        want = dense_spectral_evolve(t, radii[idx], s_dense, ut_dense)
        for chi in (+1, -1):
            got = wr.spectral_evolve(prof, chi, t, radii)
            for fast, dense in zip(got, want):
                assert np.max(np.abs(fast[idx] - dense)) <= 1e-10 * np.max(np.abs(dense))

    def test_uneven_radii_raise(self, profile):
        with pytest.raises(NotEvenlySpaced):
            wr.spectral_evolve(profile, +1, 0.5, np.array([profile.dr / 2.0, 0.1, 0.2, 0.5, 0.6]))

    def test_default_crosscheck_takes_few_direct_rows(self, profile, monkeypatch):
        # bessel_sums sums a row directly where NUFFT_ERR sum |c| / r or / r^2 could pass
        # 1e-10 of max |out|: 75 rows at the Gaussian kernel's NUFFT_ERR = 1.6e-12
        rows = []
        direct = fd.bessel_rows
        monkeypatch.setattr(fd, "bessel_rows", lambda k, zero, one, x: rows.append(x.size) or direct(k, zero, one, x))
        for t in (0.0, 0.5, 1.0, 2.0):
            wr.crosscheck_against_spectral(profile, +1, t)
        assert len(rows) == 4 and max(rows) <= 16


class TestAsymptotics:
    def test_centered_limit_exactly_half(self, profile):
        plus, minus = wr.asymptotic_ball_probability(profile, (0.0, 0.0, 0.0), +1)
        assert plus == 0.5 and minus == 0.5

    def test_bounds_random_states(self):
        for seed in range(100):
            r = np.random.default_rng(seed)
            width = r.uniform(0.8, 2.0)
            second = r.uniform(-0.9, 0.9)
            prof = wr.RadialProfile.from_callable(
                bump_profile(width, second), width + 0.5, 512
            ).normalized()
            b = r.normal(size=3) * r.uniform(0.2, 3.0)
            plus, minus = wr.asymptotic_ball_probability(prof, b, +1)
            assert 0.25 - 1e-9 <= plus <= 0.75 + 1e-9
            assert 0.25 - 1e-9 <= minus <= 0.75 + 1e-9
            assert abs(plus + minus - 1.0) <= 1e-12

    def test_limit_matches_long_time_simulation(self, profile):
        # state centered at b = -c e3 corresponds to the evolved ball at c e3
        c = 1.1
        plus, _ = wr.asymptotic_ball_probability(profile, (0.0, 0.0, -c), +1)
        sim = wr.ball_probability_evolved(wr.evolved_quadrature(profile, +1, 40.0), center=c)
        assert abs(sim - plus) <= 0.02

    def test_slab_probability_increases_to_one(self, profile):
        quads = [wr.evolved_quadrature(profile, +1, t) for t in (5.0, 10.0, 40.0, 80.0)]
        vals = [wr.slab_probability_evolved(q, beta=0.7) for q in quads]
        assert all(b >= a - 1e-3 for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1.0
        assert vals[-1] >= 0.99  # |t| = 40 x (support radius 2)


class TestContrastInvariants:
    def test_outer_probability_stays_up(self, profile):
        for t in (20.0, 40.0, 80.0):
            ball = wr.ball_probability_evolved(wr.evolved_quadrature(profile, +1, t))
            assert 1.0 - ball >= 0.25 - 0.02

    def test_inner_ball_decays(self, profile):
        vals = [
            wr.ball_probability_evolved(wr.evolved_quadrature(profile, +1, t), radius=0.5 * t) for t in (20.0, 40.0)
        ]
        assert all(v <= 0.01 for v in vals)


class TestQuadratureHelpers:
    def test_simpson_exact_on_cubics(self):
        x = np.linspace(0.0, 2.0, 9)
        w = wr.simpson_weights(9, x[1] - x[0])
        assert abs(np.sum(w * x**3) - 4.0) <= 1e-13

    def test_cumulative_simpson_matches_total(self):
        x = np.linspace(0.0, 3.0, 101)
        f = np.exp(-x) * np.sin(3 * x)
        cum = wr.cumulative_simpson(f, x[1] - x[0])
        w = wr.simpson_weights(101, x[1] - x[0])
        assert abs(cum[-1] - np.sum(w * f)) <= 1e-12
