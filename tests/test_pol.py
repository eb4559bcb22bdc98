import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from causalfermion import algebra as al
from causalfermion import cli
from causalfermion import dynamics as dyn
from causalfermion import field as fd
from causalfermion import pol
from causalfermion.errors import DomainViolation
from causalfermion.weylradial import simpson_weights

rng = np.random.default_rng(59)


def gaussian_radial_state(system, k_nodes, center, width, seed=0):
    """Gaussian envelope in k (center, width) times random constant spinors s and v."""
    r = np.random.default_rng(seed)
    d = system.components
    env = np.exp(-0.5 * ((k_nodes - center) / width) ** 2).astype(complex)
    s = env[:, None] * (r.normal(size=d) + 1j * r.normal(size=d))
    v = env[:, None] * (r.normal(size=d) + 1j * r.normal(size=d))
    return pol.RadialSpinorState(k_nodes, s, v, system, "momentum")


def dense_bessel_transform(x, nodes_in, nodes_out, order):
    """Oracle: sqrt(2/pi) int j_order(k r) k^2 x(k) dk as the dense Simpson sum, chunked over outputs."""
    w = simpson_weights(nodes_in.size, float(nodes_in[1] - nodes_in[0]))
    pref = w * nodes_in**2
    out = np.empty((nodes_out.size, x.shape[1]), dtype=complex)
    for start in range(0, nodes_out.size, 256):
        arg = np.outer(nodes_out[start : start + 256], nodes_in)
        if order == 0:
            kern = al.sinc(arg)
        else:
            small = np.abs(arg) < 1e-4
            safe = np.where(small, 1.0, arg)
            kern = np.where(small, arg / 3.0, np.sin(safe) / safe**2 - np.cos(safe) / safe)
        out[start : start + 256] = np.sqrt(2.0 / np.pi) * ((kern * pref) @ x)
    return out


@pytest.fixture(scope="module")
def kgrid():
    return np.linspace(0.0, 140.0, 8193)


@pytest.fixture(scope="module")
def radii():
    return np.linspace(0.0, 10.0, 4097)


@pytest.fixture(scope="module")
def shell(kgrid):
    return pol.shell_state(al.Dirac(1.0), kgrid, 1.0, 2.0)


@pytest.fixture(scope="module")
def grid3():
    return fd.Grid(3, 32, 8.0 / 32)


@pytest.fixture(scope="module")
def phi3(grid3):
    return pol.random_positive_state(grid3, al.Dirac(1.0), seed=11)


class TestRadialEngineAlgebra:
    def test_normalizing_the_zero_state_raises(self, kgrid):
        zeros = np.zeros((kgrid.size, 4), dtype=complex)
        with pytest.raises(ValueError, match="cannot normalize the zero state"):
            pol.RadialSpinorState(kgrid, zeros, zeros, al.Dirac(1.0)).normalized()

    def test_projector_algebra(self, kgrid):
        st = gaussian_radial_state(al.Dirac(1.0), kgrid, 1.5, 0.4, seed=2)
        pp = st.apply_projector(+1)
        pm = st.apply_projector(-1)
        assert np.max(np.abs(pp.s + pm.s - st.s)) <= 1e-14
        assert np.max(np.abs(pp.v + pm.v - st.v)) <= 1e-14
        pp2 = pp.apply_projector(+1)
        assert np.max(np.abs(pp2.s - pp.s)) <= 1e-13
        eps = np.sqrt(kgrid**2 + 1.0)
        hp = pp.apply_h()
        assert np.max(np.abs(hp.s - eps[:, None] * pp.s)) <= 1e-12
        assert np.max(np.abs(hp.v - eps[:, None] * pp.v)) <= 1e-12

    @pytest.mark.parametrize("system", [al.Dirac(1.0), al.Dirac(0.0), al.Weyl(+1), al.Weyl(-1)],
                             ids=["dirac1", "dirac0", "weyl+", "weyl-"])
    @pytest.mark.parametrize("eta", [+1, -1])
    def test_projector_matches_componentwise_formula(self, kgrid, system, eta):
        # oracle: [s, v] -> [(s + eta ((m/e) beta s + chi (k/e) v))/2, (v + eta (chi (k/e) s - (m/e) beta v))/2]
        st = gaussian_radial_state(system, kgrid, 1.5, 0.4, seed=4)
        eps = np.sqrt(kgrid**2 + system.m**2)
        eps[eps == 0.0] = np.inf
        dirac = isinstance(system, al.Dirac)
        ke = (kgrid / eps)[:, None] * (1 if dirac else system.chi)
        me = (system.m / eps)[:, None]
        beta = (lambda x: x @ al.BETA.T) if dirac else (lambda x: 0.0 * x)
        want_s = 0.5 * (st.s + eta * (me * beta(st.s) + ke * st.v))
        want_v = 0.5 * (st.v + eta * (ke * st.s - me * beta(st.v)))
        got = st.apply_projector(eta)
        scale = max(np.abs(want_s).max(), np.abs(want_v).max())
        assert np.max(np.abs(got.s - want_s)) <= 1e-15 * scale
        assert np.max(np.abs(got.v - want_v)) <= 1e-15 * scale
        if system.m == 0.0:  # the k = 0 node of a massless system keeps weight 1/2
            assert np.array_equal(got.s[0], 0.5 * st.s[0]) and np.array_equal(got.v[0], 0.5 * st.v[0])

    def test_pi0_idempotent_and_shell_invariant(self, kgrid, shell):
        q = shell.apply_dilation_limit_projector()
        assert np.max(np.abs(q.s - shell.s)) == 0.0
        q2 = q.apply_dilation_limit_projector()
        assert np.max(np.abs(q2.s - q.s)) <= 1e-15

    def test_bessel_transform_is_isometry(self, kgrid):
        st = gaussian_radial_state(al.Dirac(1.0), kgrid, 1.5, 0.4, seed=3).normalized()
        wide = np.linspace(0.0, 24.0, 4097)  # hold the position tail
        pos = pol.radial_to_position(st, wide)
        assert abs(pos.norm_sq() - 1.0) <= 1e-10
        back = pol.radial_to_momentum(pos, kgrid)
        diff = pol.RadialSpinorState(kgrid, back.s - st.s, back.v - st.v, st.system)
        # pointwise error concentrates at k ~ 0 where the k^2 measure vanishes
        assert diff.norm_sq() <= 1e-10

    def test_radial_engine_matches_3d_grid(self):
        # same band-limited state built both ways: T(B) values agree
        system = al.Dirac(1.0)
        k = np.linspace(0.0, 24.0, 2049)
        st = gaussian_radial_state(system, k, 1.2, 0.35, seed=9)
        st = st.apply_projector(+1).normalized()
        radii = np.linspace(0.0, 12.0, 2049)
        want = pol.ball_expectation(st, 1.0, radii)

        grid = fd.Grid(3, 64, 24.0 / 64)
        mesh = grid.momentum_mesh()
        pmag = np.sqrt(sum(m**2 for m in mesh))
        phat = [np.where(pmag > 0, m / np.where(pmag > 0, pmag, 1.0), 0.0) for m in mesh]
        interp = lambda arr: np.interp(pmag.ravel(), k, arr).reshape(pmag.shape)
        vals = np.zeros((4,) + (grid.n,) * 3, dtype=complex)
        for c in range(4):
            s_c = interp(st.s[:, c].real) + 1j * interp(st.s[:, c].imag)
            v_c = interp(st.v[:, c].real) + 1j * interp(st.v[:, c].imag)
            vals[c] += s_c
            # (alpha . p^) v contribution
            for ax in range(3):
                col = al.ALPHA[ax][c, :]
                for cc in range(4):
                    if col[cc] != 0:
                        v_cc = interp(st.v[:, cc].real) + 1j * interp(st.v[:, cc].imag)
                        vals[c] += col[cc] * phat[ax] * v_cc
        phi = fd.SpinorField(grid, system, "momentum", vals).normalized()
        got = phi.to_position().probability(fd.RegionMask.ball(grid, (0, 0, 0), 1.0))
        assert abs(got - want) <= 6e-3

    def test_dilation_rescales_profile(self, kgrid, shell):
        d2 = pol.dilate_radial(shell, 2.0)
        # support of the dilated shell moves to [2, 4]
        dens = np.sum(np.abs(d2.s) ** 2 + np.abs(d2.v) ** 2, axis=1)
        sel = dens > 1e-12
        assert kgrid[sel].min() >= 2.0 - 0.1
        assert kgrid[sel].max() <= 4.0 + 0.1


def _truncated(pos, radius=1.0):
    """E(B_radius) of a position-representation pair, as truncation_negative_fraction cuts it."""
    mask = (pos.k <= radius).astype(float)[:, None]
    return pol.RadialSpinorState(pos.k, pos.s * mask, pos.v * mask, pos.system, "position")


class TestBesselTransform:
    """radial_to_position / radial_to_momentum against the dense Simpson sum."""

    @staticmethod
    def weyl_state(kgrid):
        st = gaussian_radial_state(al.Weyl(+1), kgrid, 1.5, 0.4, seed=5).apply_projector(+1)
        return pol.dilate_radial(st.normalized(), 8.0)

    @pytest.fixture(scope="class")
    def cases(self, kgrid, radii, shell):
        # (momentum or position state, output nodes): the run_pol radii 0..10 and back to k
        dirac64 = pol.point_localized_sequence(shell, 64.0)
        weyl = self.weyl_state(kgrid)
        offset = 0.03 + 0.0031 * np.arange(3001)  # r_0 != 0: no output at r = 0
        random = gaussian_radial_state(al.Dirac(1.0), kgrid, 1.5, 0.4, seed=3)
        return {
            "dirac-n1-to-r": (pol.point_localized_sequence(shell, 1.0), radii),
            "dirac-n64-to-r": (dirac64, radii),
            "dirac-n64-ball-to-k": (_truncated(pol.radial_to_position(dirac64, radii)), kgrid),
            "weyl-to-r": (weyl, radii),
            "weyl-ball-to-k": (_truncated(pol.radial_to_position(weyl, radii)), kgrid),
            "random-to-r0": (random, offset),
            "random-r0-to-k0": (pol.radial_to_position(random, offset), 0.05 + kgrid[:6000]),
            # k_max r < 1 on every row: the fast sums cancel throughout
            "dirac-n1-to-small-r": (pol.point_localized_sequence(shell, 1.0), radii[:257] / 100.0),
        }

    @pytest.mark.parametrize("case", [
        "dirac-n1-to-r", "dirac-n64-to-r", "dirac-n64-ball-to-k", "weyl-to-r",
        "weyl-ball-to-k", "random-to-r0", "random-r0-to-k0", "dirac-n1-to-small-r",
    ])
    def test_matches_dense_sum(self, cases, case):
        st, nodes = cases[case]
        out = (pol.radial_to_position if st.rep == "momentum" else pol.radial_to_momentum)(st, nodes)
        # every output up to k_max r = 16, every 4th up to 128 (the direct rows
        # end in there on these states), then every 13th to the last
        k_max = float(np.max(np.abs(st.k)))
        head, mid = np.searchsorted(np.abs(nodes), np.array([16.0, 128.0]) / k_max)
        idx = np.unique(np.r_[0:head, head:mid:4, mid:nodes.size:13, nodes.size - 1])
        for got, x, order in ((out.s, st.s, 0), (out.v, st.v, 1)):
            want = dense_bessel_transform(x, st.k, nodes[idx], order)
            assert np.max(np.abs(got[idx] - want)) <= 1e-10 * np.max(np.abs(want))

    def test_uneven_outputs_raise(self, kgrid, shell):
        uneven = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError, match="outputs must be evenly spaced"):
            pol.radial_to_position(shell, uneven)
        pos = pol.RadialSpinorState(kgrid, shell.s, shell.v, shell.system, "position")
        with pytest.raises(ValueError, match="outputs must be evenly spaced"):
            pol.radial_to_momentum(pos, uneven)

    def test_pol_run_transforms_only_live_strengths(self, tmp_path, monkeypatch):
        # the shell state fills part of the k nodes, the ball-truncated state a tenth of
        # the radii, and the spinor e_1 leaves half the columns zero: none of it is spread
        shapes = []
        inner = fd.nufft1

        def checking(theta, strengths, m):
            c = np.asarray(strengths)
            assert np.all(np.any(c != 0, axis=1)), "an all-zero source row reached nufft1"
            assert np.all(np.any(c != 0, axis=0)), "an all-zero column reached nufft1"
            shapes.append(c.shape)
            return inner(theta, strengths, m)

        monkeypatch.setattr(fd, "nufft1", checking)
        argv = ["pol", "--set", "k_nodes=1024", "--set", "ns=32 64", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert shapes and all(cols < 12 for _, cols in shapes)

    def test_no_runtime_warning(self, kgrid, radii, shell):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pos = pol.radial_to_position(pol.point_localized_sequence(shell, 4.0), radii)
            pol.radial_to_momentum(_truncated(pos), kgrid)
            pol.radial_to_position(self.weyl_state(kgrid), 0.03 + radii)


class TestPointLocalization:
    def test_ball_expectation_monotone_to_one(self, shell, radii):
        ns = [1, 2, 4, 8, 16, 32, 64]
        vals = [pol.ball_expectation(pol.point_localized_sequence(shell, n), 1.0, radii) for n in ns]
        assert all(b >= a - 1e-3 for a, b in zip(vals, vals[1:]))
        assert vals[-1] >= 0.99

    def test_any_ball_improves(self, shell, radii):
        phi8 = pol.point_localized_sequence(shell, 8.0)
        phi32 = pol.point_localized_sequence(shell, 32.0)
        for radius in (0.5, 2.0):
            assert pol.ball_expectation(phi32, radius, radii) >= pol.ball_expectation(
                phi8, radius, radii
            )

    def test_eplses_asymptotic_equality(self, kgrid, radii):
        # exact projector eigenvector sequence vs its dilation-limit form
        system = al.Dirac(1.0)
        env = np.exp(-0.5 * ((kgrid - 1.5) / 0.4) ** 2).astype(complex)
        base = pol.shell_state(system, kgrid, 0.0, np.inf)  # u0 pair, unit envelope
        u0 = pol.RadialSpinorState(kgrid, base.s * env[:, None], base.v * env[:, None], system)
        diffs = []
        for n in (4.0, 16.0, 64.0):
            phi_n = pol.point_localized_sequence(u0, n)  # P+ D_n^{-1} (f u0), normalized
            prime = pol.dilate_radial(u0, n).apply_projector(+1)
            prime = pol.RadialSpinorState(
                kgrid, prime.s, prime.v, system
            )
            # phi'_n = pi^+ (D_n^{-1} f) u0 without renormalizing the projector loss
            nrm = np.sqrt(pol.dilate_radial(u0, n).norm_sq())
            prime.s /= nrm
            prime.v /= nrm
            d = pol.RadialSpinorState(kgrid, phi_n.s - prime.s, phi_n.v - prime.v, system)
            diffs.append(np.sqrt(d.norm_sq()))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[-1] <= 0.02

    def test_truncation_negative_energy_vanishes(self, shell, radii):
        rows = dict(pol.truncation_negative_fraction(shell, [4, 16, 64], 1.0, radii))
        assert rows[4] > rows[16] > rows[64]
        assert rows[64] <= 0.05

    def test_truncation_mask_idempotent(self, shell, radii):
        phi = pol.point_localized_sequence(shell, 8.0)
        pos = pol.radial_to_position(phi, radii)
        mask = (radii <= 1.0).astype(float)[:, None]
        cut = pol.RadialSpinorState(radii, pos.s * mask, pos.v * mask, pos.system, "position")
        twice = pol.RadialSpinorState(
            radii, cut.s * mask, cut.v * mask, cut.system, "position"
        )
        assert np.max(np.abs(twice.s - cut.s)) == 0.0

    def test_ball_norm_approaches_one(self, shell, radii):
        # ||E(B) phi_n|| -> 1 along the sequence
        vals = []
        for n in (4.0, 64.0):
            phi = pol.point_localized_sequence(shell, n)
            pos = pol.radial_to_position(phi, radii)
            vals.append(np.sqrt(pol.radial_ball_mass(pos, 1.0)))
        assert vals[1] > vals[0]
        assert vals[1] >= 0.995


class TestEnergyGrowth:
    @staticmethod
    def factory(kgrid):
        # D_n^{-1} of the [1, 2] shell, evaluated exactly
        return lambda n: pol.shell_state(al.Dirac(1.0), kgrid, n * 1.0, n * 2.0)

    def test_shell_target_value(self, shell, kgrid):
        rows, target = pol.energy_growth(
            shell, [1, 2, 4, 8, 16, 32, 64], factory=self.factory(kgrid)
        )
        # quadrature target carries the sharp-shell edge-cell bias O(dk)
        assert abs(target - 45.0 / 28.0) <= 1e-2 * (45.0 / 28.0)
        n64 = dict(rows)[64.0]
        assert abs(n64 - 45.0 / 28.0) <= 0.02 * (45.0 / 28.0)

    def test_n_equals_one_is_direct_expectation(self, shell, kgrid):
        rows, _ = pol.energy_growth(shell, [1], self.factory(kgrid))
        phi1 = pol.point_localized_sequence(shell, 1.0)
        assert abs(rows[0][1] - phi1.energy_expectation()) <= 1e-12

    def test_errors_decrease_at_least_halving(self, shell, kgrid):
        rows, _ = pol.energy_growth(shell, [8, 16, 32], factory=self.factory(kgrid))
        errs = [abs(v - 45.0 / 28.0) for _, v in rows]
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]

    def test_domain_violation(self, kgrid):
        low = pol.shell_state(al.Dirac(1.0), kgrid, 0.0, 1.0)  # touches p = 0
        with pytest.raises(DomainViolation):
            pol.energy_growth(low, [2, 4], self.factory(kgrid))


class TestWeylSequence:
    """phi_n = D_n^{-1} phi for a Weyl state in ran P^{chi +}: dilation keeps it there, no reprojection."""

    def test_n_one_identity(self, kgrid):
        st = gaussian_radial_state(al.Weyl(+1), kgrid, 1.5, 0.4, seed=5)
        st = st.apply_projector(+1).normalized()
        same = pol.dilate_radial(st, 1.0).normalized()
        assert np.max(np.abs(same.s - st.s)) <= 1e-12

    def test_dilation_preserves_membership(self, kgrid):
        st = gaussian_radial_state(al.Weyl(+1), kgrid, 1.5, 0.4, seed=5)
        st = st.apply_projector(+1).normalized()
        d = pol.dilate_radial(st, 4.0)
        proj = d.apply_projector(+1)
        diff = pol.RadialSpinorState(kgrid, proj.s - d.s, proj.v - d.v, st.system)
        assert diff.norm_sq() <= 1e-10 * d.norm_sq()

    def test_localization_at_n32(self, kgrid, radii):
        st = gaussian_radial_state(al.Weyl(+1), kgrid, 1.5, 0.4, seed=5)
        st = st.apply_projector(+1).normalized()
        phi32 = pol.dilate_radial(st, 32.0).normalized()
        assert pol.ball_expectation(phi32, 1.0, radii) >= 0.99

    def test_not_in_range(self, kgrid):
        # no reprojection only for a Weyl state in ran P+: an unprojected Weyl state is still
        # outside it after D_4^{-1}, and a massive Dirac state in ran P+ leaves it
        for st in (gaussian_radial_state(al.Weyl(+1), kgrid, 1.5, 0.4, seed=6),
                   gaussian_radial_state(al.Dirac(1.0), kgrid, 1.5, 0.4, seed=6).apply_projector(+1)):
            d = pol.dilate_radial(st.normalized(), 4.0)
            proj = d.apply_projector(+1)
            diff = pol.RadialSpinorState(kgrid, proj.s - d.s, proj.v - d.v, st.system)
            assert diff.norm_sq() >= 1e-6 * d.norm_sq()


class TestWrongRepresentation:
    """Each of pol's nine representation checks raises ValueError with its own message."""

    @pytest.fixture(scope="class")
    def inputs(self):
        grid = fd.Grid(3, 8, 0.5)
        pos = pol.random_positive_state(grid, al.Dirac(1.0), seed=3).to_position()
        mom = gaussian_radial_state(al.Dirac(1.0), np.linspace(0.0, 4.0, 65), 1.5, 0.4)
        return pos, fd.RegionMask.half_space(grid, 0.0), mom, dataclasses.replace(mom, rep="position")

    #: name -> (call, the message of its check)
    CALLS = {
        "positive_energy_project": (lambda pos, mask, mom, rpos: pol.positive_energy_project(pos),
                                    "positive_energy_project acts in momentum representation"),
        "pol_apply": (lambda pos, mask, mom, rpos: pol.pol_apply(pos, mask),
                      "pol_apply acts in momentum representation"),
        "measurement_cascade": (lambda pos, mask, mom, rpos: pol.measurement_cascade(pos, mask),
                                "measurement_cascade acts in momentum representation"),
        "apply_projector": (lambda pos, mask, mom, rpos: rpos.apply_projector(+1),
                            "projector acts in momentum representation"),
        "apply_dilation_limit_projector": (lambda pos, mask, mom, rpos: rpos.apply_dilation_limit_projector(),
                                           "pi_0 acts in momentum representation"),
        "radial_to_position": (lambda pos, mask, mom, rpos: pol.radial_to_position(rpos, mom.k),
                               "state already in position representation"),
        "radial_to_momentum": (lambda pos, mask, mom, rpos: pol.radial_to_momentum(mom, mom.k),
                               "state already in momentum representation"),
        "radial_ball_mass": (lambda pos, mask, mom, rpos: pol.radial_ball_mass(mom, 1.0),
                             "ball mass needs position representation"),
        "dilate_radial": (lambda pos, mask, mom, rpos: pol.dilate_radial(rpos, 2.0),
                          "dilation acts in momentum representation"),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_raises_wrong_representation(self, inputs, name):
        call, message = self.CALLS[name]
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(*inputs)


class TestGridEngine:
    def test_positive_projection_idempotent(self, phi3):
        proj = pol.positive_energy_project(phi3)
        assert (proj - phi3).norm() <= 1e-12

    def test_projector_completeness(self, grid3):
        r = np.random.default_rng(1)
        vals = r.normal(size=(4,) + (grid3.n,) * 3) + 1j * r.normal(size=(4,) + (grid3.n,) * 3)
        phi = fd.SpinorField(grid3, al.Dirac(1.0), "momentum", vals).normalized()
        minus = dataclasses.replace(phi, values=dyn.energy_projector_apply(phi, -1))
        both = pol.positive_energy_project(phi) + minus
        assert (both - phi).norm() <= 1e-12

    def test_commutes_with_evolution(self, phi3):
        def evolve(phi):
            values = dyn.evolution_multiplier_apply(phi, 0.7, dyn.h_apply(phi, phi.values))
            return dataclasses.replace(phi, values=values)

        lhs = pol.positive_energy_project(evolve(phi3))
        rhs = evolve(pol.positive_energy_project(phi3))
        assert (lhs - rhs).norm() <= 1e-12

    def test_pol_apply_full_space_identity(self, grid3, phi3):
        out = pol.pol_apply(phi3, fd.RegionMask.full(grid3))
        assert (out - phi3).norm() <= 1e-12

    def test_pol_apply_bounds(self, grid3, phi3):
        ball = fd.RegionMask.ball(grid3, (0, 0, 0), 1.0)
        out = pol.pol_apply(phi3, ball)
        val = np.real(phi3.inner(out))
        assert 0.0 <= val <= 1.0
        assert out.norm() < 1.0 - 1e-6  # no eigenvalue-one states for balls

    def test_pol_apply_requires_positive_energy(self, grid3):
        r = np.random.default_rng(2)
        vals = r.normal(size=(4,) + (grid3.n,) * 3) + 0j
        phi = fd.SpinorField(grid3, al.Dirac(1.0), "momentum", vals).normalized()
        with pytest.raises(ValueError, match="state is not in the positive-energy subspace"):
            pol.pol_apply(phi, fd.RegionMask.ball(grid3, (0, 0, 0), 1.0))

    def test_expectation_equals_position_mass(self, grid3, phi3):
        ball = fd.RegionMask.ball(grid3, (0, 0, 0), 1.0)
        t_val = np.real(phi3.inner(pol.pol_apply(phi3, ball)))
        direct = phi3.to_position().probability(ball)
        assert abs(t_val - direct) <= 1e-12


def chain_cascade(field, mask, depth):
    """Oracle: the direct chain, 2 depth - 1 pol_apply steps with gamma_k = <phi, T^k phi>,
    and sigma^2, sigma'^2 from separate pol_apply calls; no use of T's self-adjointness."""
    chain = field.copy()
    gamma = [1.0]
    for _ in range(2 * depth - 1):
        chain = pol.pol_apply(chain, mask, tol=np.inf)
        gamma.append(float(np.real(field.inner(chain))))
    gamma = np.array(gamma)
    bars = []
    for region in (mask, ~mask):
        e_phi = field.to_position().apply_mask(region).to_momentum()
        bars.append((e_phi - pol.positive_energy_project(e_phi)).norm_sq())
    return {
        "gamma": gamma,
        "omega": gamma[1::2] / gamma[0:-1:2],
        "sigma": gamma[0:-1:2],
        "sigma2": pol.pol_apply(field, mask, tol=np.inf).norm_sq(),
        "sigma2_prime": pol.pol_apply(field, ~mask, tol=np.inf).norm_sq(),
        "sigma2_bar": bars[0],
        "sigma2_bar_prime": bars[1],
    }


def stepwise_cascade(field, mask, depth):
    """Oracle: the cascade's algorithm, step by step through the unpruned public calls.

    phi to position once; E(Delta) phi and E(Delta') phi masked from it, to momentum and
    projected; then depth - 1 pol_apply steps, with gamma_2j+1 = Re <T^j phi, T^j+1 phi>.
    """
    pos = field.to_position()
    sigmas = []
    for region in (~mask, mask):
        e_phi = pos.apply_mask(region).to_momentum()
        cur = pol.positive_energy_project(e_phi)  # T phi, for the region mask last
        sigmas += [cur.norm_sq(), (e_phi - cur).norm_sq()]
    gamma = [1.0, float(np.real(field.inner(cur)))]
    for _ in range(depth - 1):
        nxt = pol.pol_apply(cur, mask, tol=np.inf)
        gamma += [cur.norm_sq(), float(np.real(cur.inner(nxt)))]
        cur = nxt
    return {"gamma": np.array(gamma), "sigma2_prime": sigmas[0], "sigma2_bar_prime": sigmas[1],
            "sigma2": sigmas[2], "sigma2_bar": sigmas[3]}


@pytest.fixture(scope="module")
def grid16():
    return fd.Grid(3, 16, 8.0 / 16)


def _region(grid, name):
    if name == "ball":
        return fd.RegionMask.ball(grid, (0.0, 0.0, 0.0), 1.0)
    return fd.RegionMask.half_space(grid, 0.0)


class TestCascadeOracle:
    @pytest.mark.parametrize("region", ["ball", "half_space"])
    @pytest.mark.parametrize("depth", [1, 2, 8, 12])
    def test_matches_chain_oracle(self, grid16, region, depth):
        phi = pol.random_positive_state(grid16, al.Dirac(1.0), seed=3)
        mask = _region(grid16, region)
        stats = pol.measurement_cascade(phi, mask, depth=depth)
        want = chain_cascade(phi, mask, depth)
        for name, ref in want.items():
            got = getattr(stats, name)
            assert np.shape(got) == np.shape(ref), name
            assert np.all(np.abs(np.asarray(got) - ref) <= 1e-13 * np.abs(ref)), name

    @pytest.mark.parametrize("mass", [1.0, 0.0])
    @pytest.mark.parametrize("region", ["ball", "half_space"])
    @pytest.mark.parametrize("depth", [1, 2, 8, 12])
    def test_keeps_the_bits_of_the_unpruned_steps(self, grid16, mass, region, depth):
        # the cascade's reused arrays and pruned FFTs change no bit of any moment or probability
        phi = pol.random_positive_state(grid16, al.Dirac(mass), seed=3)
        mask = _region(grid16, region)
        stats = pol.measurement_cascade(phi, mask, depth=depth)
        want = stepwise_cascade(phi, mask, depth)
        assert np.array_equal(stats.gamma, want.pop("gamma"))
        for name, ref in want.items():
            assert getattr(stats, name) == ref, name

    @pytest.mark.parametrize("depth", [1, 2, 8, 12])
    def test_work_per_cascade(self, grid16, depth, monkeypatch):
        # one cascade: phi to position once, E(Delta) and E(Delta') phi to momentum and
        # projected once each, then depth - 1 chain steps of one FFT pair and one projection
        phi = pol.random_positive_state(grid16, al.Dirac(1.0), seed=3)
        mask = _region(grid16, "ball")
        calls = {}

        def counting(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((fd.SpinorField, "to_position"), (fd.SpinorField, "to_momentum"),
                            (pol, "positive_energy_project")):
            counting(owner, name)
        pol.measurement_cascade(phi, mask, depth=depth)
        assert calls == {"to_position": depth, "to_momentum": depth + 1, "positive_energy_project": depth + 1}


class TestCascade:
    @pytest.mark.parametrize("region", ["ball", "half_space"])
    def test_peak_memory_of_a_chain_step(self, grid3, region):
        # one chain step, T(Delta) cur and the two moments it adds, at the default 32^3: beside
        # the state it is given it holds the masked state, its transform, the projector's h(p)
        # output, one scratch plane and the projector's site tables, 2.44 states as measured
        phi = pol.random_positive_state(grid3, al.Dirac(1.0), seed=2)
        mask = _region(grid3, region)
        cur = pol.pol_apply(phi, mask, tol=np.inf)  # warms the per-grid and per-mass tables
        tracemalloc.start()
        try:
            nxt = pol.pol_apply(cur, mask, tol=np.inf)
            moments = cur.norm_sq(), cur.inner(nxt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * cur.values.nbytes, peak

    @pytest.mark.parametrize("region", ["ball", "half_space"])
    def test_peak_memory_of_a_cascade(self, grid3, region):
        # one default cascade (32^3, depth 8) holds three state-sized arrays (phi's position,
        # reused for the chain; the masked array; the projection) beside the state it is given,
        # plus the projector's scratch plane and site table: 3.4 states as measured
        phi = pol.random_positive_state(grid3, al.Dirac(1.0), seed=2)
        mask = _region(grid3, region)
        pol.measurement_cascade(phi, mask, depth=8)  # warms the per-grid and per-mass tables
        tracemalloc.start()
        try:
            pol.measurement_cascade(phi, mask, depth=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.25 * phi.values.nbytes, peak / phi.values.nbytes

    def test_full_space_trivial(self, grid3, phi3):
        stats = pol.measurement_cascade(phi3, fd.RegionMask.full(grid3), depth=3)
        assert np.max(np.abs(stats.gamma - 1.0)) <= 1e-12
        assert np.max(np.abs(stats.omega - 1.0)) <= 1e-12

    def test_monotonicity_and_moments(self, grid3, phi3):
        ball = fd.RegionMask.ball(grid3, (0, 0, 0), 1.0)
        stats = pol.measurement_cascade(phi3, ball, depth=6)
        assert np.all(np.diff(stats.omega) >= -1e-12)
        assert np.all(np.diff(stats.sigma) <= 1e-12)
        g = stats.gamma
        for k in range(1, 9):
            assert g[k - 1] * g[k + 1] - g[k] ** 2 >= -1e-12

    def test_depth_above_cap_raises(self, grid3, phi3):
        ball = fd.RegionMask.ball(grid3, (0, 0, 0), 1.0)
        with pytest.raises(ValueError):
            pol.measurement_cascade(phi3, ball, depth=pol.MAX_CASCADE_DEPTH + 1)

    def test_half_space_monotone_depth_ten(self, grid3):
        phi = pol.random_positive_state(grid3, al.Dirac(1.0), seed=21)
        half = fd.RegionMask.half_space(grid3, 0.0)
        stats = pol.measurement_cascade(phi, half, depth=11)
        assert stats.omega.size >= 11
        assert np.all(np.diff(stats.omega)[:10] >= -1e-12)

    def test_pair_probabilities(self, grid3):
        ball = fd.RegionMask.ball(grid3, (0, 0, 0), 1.0)
        for seed in range(10):
            phi = pol.random_positive_state(grid3, al.Dirac(1.0), seed=100 + seed)
            stats = pol.measurement_cascade(phi, ball, depth=2)
            s2 = stats.sigma2 + stats.sigma2_prime
            assert 0.5 - 1e-12 <= s2 < 1.0
            assert abs(stats.sigma2_bar + stats.sigma2_bar_prime - (1.0 - s2)) <= 1e-12

    def test_euclidean_shift_localizes_elsewhere(self, grid3):
        # multiplying by e^{-i b p} moves the localization point to b
        phi = pol.random_positive_state(grid3, al.Dirac(1.0), seed=33)
        b = np.array([0.0, 0.0, 1.5])
        mesh = grid3.momentum_mesh()
        phase = np.exp(-1j * sum(b[k] * mesh[k] for k in range(3)))
        shifted = dataclasses.replace(phi, values=phi.values * phase)
        ball_b = fd.RegionMask.ball(grid3, b, 1.0)
        ball_0 = fd.RegionMask.ball(grid3, (0.0, 0.0, 0.0), 1.0)
        pos0 = phi.to_position()
        pos_b = shifted.to_position()
        assert abs(pos_b.probability(ball_b) - pos0.probability(ball_0)) <= 1e-10
