import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from causalfermion import algebra as al
from causalfermion import dynamics as dyn
from causalfermion import field as fd
from causalfermion.errors import GuardViolation, NotEvenlySpaced

rng = np.random.default_rng(23)


def dirac_bump(n=2048, length=16.0, width=1.0, guard=3.0, m=1.0):
    grid = fd.Grid(1, n, length / n)
    return fd.make_bump(grid, 0.0, width, [1, 0.3, 1j, 0], al.Dirac(m), guard=guard)


class TestCausalEvolution:
    def test_t_zero_identity(self):
        psi = dirac_bump()
        assert (dyn.evolve_causal(psi, 0.0) - psi).norm() <= 1e-14

    def test_norm_and_group_law(self):
        psi = dirac_bump()
        for t in (0.5, -1.0, 2.0):
            assert abs(dyn.evolve_causal(psi, t).norm() - 1.0) <= 1e-12
        e_ab = dyn.evolve_causal(dyn.evolve_causal(psi, 0.7), 0.5)
        assert (e_ab - dyn.evolve_causal(psi, 1.2)).norm() <= 1e-12

    def test_random_bumps_norm_group_cone(self):
        grid = fd.Grid(1, 2048, 24.0 / 2048)
        for seed in range(50):
            r = np.random.default_rng(seed)
            center = r.uniform(-2.0, 2.0)
            width = r.uniform(0.5, 1.5)
            spinor = r.normal(size=4) + 1j * r.normal(size=4)
            psi = fd.make_bump(grid, center, width, spinor, al.Dirac(1.0), guard=2.2)
            t = r.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
            ev = dyn.evolve_causal(psi, t)
            assert abs(ev.norm() - 1.0) <= 1e-12
            cone = fd.RegionMask.strip(grid, center - width - abs(t), center + width + abs(t))
            assert ev.probability(~cone) <= fd.EPS_LEAK

    def test_weyl_upper_component_translates(self):
        grid = fd.Grid(1, 2048, 16.0 / 2048)
        psi = fd.make_bump(grid, 0.0, 1.0, [1, 0], al.Weyl(+1), guard=3.0)
        ev = dyn.evolve_causal(psi, 1.0)
        shifted = fd.translate(psi, -1.0)
        assert np.max(np.abs(ev.values - shifted.values)) <= 1e-10

    def test_causality_bump_outside_cone(self):
        # bump in [-1, 1], t = 2: probability outside [-3, 3] below the budget
        psi = dirac_bump(width=1.0, guard=3.0)
        ev = dyn.evolve_causal(psi, 2.0)
        cone = fd.RegionMask.strip(psi.grid, -3.0, 3.0)
        assert ev.probability(~cone) <= 1e-8

    def test_rk4_oracle(self):
        # i d/dt psi = H psi integrated by RK4 equals the spectral e^{-itH}
        grid = fd.Grid(1, 64, 8.0 / 64)
        psi = fd.make_bump(grid, 0.0, 1.0, [1, 0, 0, 0], al.Dirac(1.0), guard=1.2)
        phi = psi.to_momentum()
        p = grid.paxis()

        def h_apply(v):
            out = p[:, None] * np.einsum("ij,kj->ki", al.ALPHA[2], v)
            return out + np.einsum("ij,kj->ki", al.BETA, v)

        v = phi.values.copy()
        dt = 1e-4
        for _ in range(10000):
            k1 = -1j * h_apply(v)
            k2 = -1j * h_apply(v + dt / 2 * k1)
            k3 = -1j * h_apply(v + dt / 2 * k2)
            k4 = -1j * h_apply(v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        rk = dataclasses.replace(phi, values=v).to_position()
        spectral = dyn.evolve_causal(psi, -1.0)
        assert (rk - spectral).norm() <= 1e-6

    def test_guard_violation(self):
        psi = dirac_bump(n=256, length=6.0, width=1.0, guard=0.0)
        with pytest.raises(GuardViolation):
            dyn.evolve_causal(psi, 5.0)


class TestNewtonWigner:
    def test_identity_and_norm(self):
        psi = dirac_bump()
        assert (dyn.evolve_newton_wigner(psi, 0.0) - psi).norm() <= 1e-14
        assert abs(dyn.evolve_newton_wigner(psi, 1.0).norm() - 1.0) <= 1e-12

    def test_acausal_foil(self):
        # m = 1 bump in [-1, 1]: instantaneous spreading beyond the light cone
        psi = dirac_bump()
        causal_leak, nw_leak, evolved = dyn.newton_wigner_leak(psi, 1.0)
        assert causal_leak <= fd.EPS_LEAK
        assert nw_leak >= 100 * fd.EPS_LEAK
        # the returned causal evolution is the one evolve_causal gives
        assert np.array_equal(evolved.values, dyn.evolve_causal(psi, 1.0).values)


class TestTimeReversal:
    def test_antiunitary_and_square(self):
        psi = dirac_bump()
        chi = fd.make_bump(psi.grid, 0.5, 0.8, [0, 1, 0, 1j], al.Dirac(1.0))
        tpsi, tchi = dyn.time_reverse(psi), dyn.time_reverse(chi)
        assert abs(tpsi.norm() - 1.0) <= 1e-14
        assert abs(tpsi.inner(tchi) - np.conj(psi.inner(chi))) <= 1e-14
        again = dyn.time_reverse(tpsi)
        assert (again + psi).norm() <= 1e-14

    def test_edges_invariant(self):
        from causalfermion import frontier as fr

        psi = dirac_bump()
        rev = dyn.time_reverse(psi)
        for e in (+1, -1):
            assert fr.support_edge(rev, e, 1e-6) == fr.support_edge(psi, e, 1e-6)

    def test_commutes_with_masks(self):
        psi = dirac_bump()
        m = fd.RegionMask.half_space(psi.grid, 0.1)
        lhs = dyn.time_reverse(psi.apply_mask(m))
        rhs = dyn.time_reverse(psi).apply_mask(m)
        assert (lhs - rhs).norm() == 0.0

    def test_reverses_evolution(self):
        psi = dirac_bump()
        lhs = dyn.evolve_causal(dyn.time_reverse(psi), 0.8)
        rhs = dyn.time_reverse(dyn.evolve_causal(psi, -0.8))
        assert (lhs - rhs).norm() <= 1e-10


class TestBoost:
    def test_identity_at_zero(self):
        psi = dirac_bump()
        assert (dyn.boost_e3(psi, 0.0) - psi).norm() == 0.0

    def test_unitary(self):
        psi = dirac_bump()
        assert abs(dyn.boost_e3(psi, 0.4).norm() - 1.0) <= 1e-8

    def test_composition(self):
        psi = dirac_bump()
        b_ab = dyn.boost_e3(dyn.boost_e3(psi, 0.25), 0.15)
        b = dyn.boost_e3(psi, 0.4)
        assert (b_ab - b).norm() <= 1e-7

    def test_time_reversal_conjugation(self):
        # boost(-rho) = T boost(rho) T^{-1}; T^{-1} = -T since T^2 = -1
        psi = dirac_bump()
        lhs = dyn.boost_e3(psi, -0.4)
        rhs = dyn.time_reverse(dyn.boost_e3(dyn.time_reverse(psi), 0.4)) * (-1.0)
        assert (lhs - rhs).norm() <= 1e-8

    def test_weyl_boost_is_component_dilation(self):
        grid = fd.Grid(1, 2048, 16.0 / 2048)
        width = 1.0
        psi = fd.make_bump(grid, 0.0, width, [1, 0], al.Weyl(+1), guard=2.5)
        rho = 0.3
        boosted = dyn.boost_e3(psi, rho)
        x = grid.axis(0)
        sel = np.abs(x) < 2.0
        amp = psi.values[np.argmin(np.abs(x)), 0].real / np.exp(-1.0)
        scaled = np.where(
            np.abs(np.exp(rho) * x[sel]) < width,
            amp * np.exp(-width**2 / np.maximum(width**2 - (np.exp(rho) * x[sel]) ** 2, 1e-300)),
            0.0,
        )
        assert np.max(np.abs(boosted.values[sel, 0] - np.exp(rho / 2) * scaled)) <= 1e-8

    def test_influence_interval(self):
        lo, hi = dyn.influence_interval(0.0, 2.0, 1.0)
        assert lo == 0.0 and abs(hi - 2.0 * np.e) <= 1e-14
        lo, hi = dyn.influence_interval(-1.0, 2.0, -1.0)
        assert abs(lo + np.e) <= 1e-14

    def test_guard(self):
        psi = dirac_bump(n=1024, length=8.0, width=1.0, guard=0.5)
        with pytest.raises(GuardViolation):
            dyn.boost_e3(psi, 2.0)


def pointwise_h(system, p):
    """h(p) at one 3-momentum, straight from the algebra module."""
    if system.kind == "dirac":
        return al.dirac_hamiltonian(p, system.m)
    return al.weyl_hamiltonian(p, system.chi)


def dense_boost_values(field, rho, x_out):
    """Direct O(N |x_out|) Fourier sum for the boosted field: the oracle for boost_values."""
    g = field.grid
    phi = field.to_momentum()
    p = g.paxis()
    eps = np.sqrt(p**2 + field.system.m**2)
    hphi = np.array([pointwise_h(field.system, (0.0, 0.0, pk)) @ v for pk, v in zip(p, phi.values)])
    y0 = -np.sinh(rho) * x_out
    y3 = np.cosh(rho) * x_out
    carrier = np.exp(1j * np.outer(y3, p))
    c = np.cos(np.outer(y0, eps))
    s = y0[:, None] * al.sinc(np.outer(y0, eps))
    out = g.dp / np.sqrt(2.0 * np.pi) * ((carrier * c) @ phi.values - 1j * (carrier * s) @ hphi)
    return np.einsum("ij,xj->xi", field.system.boost_rep(al.boost_matrix(rho)), out)


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestBoostTransform:
    SYSTEMS = [al.Dirac(1.0), al.Dirac(0.0), al.Weyl(+1), al.Weyl(-1)]

    @pytest.mark.parametrize("n", [512, 1024, 2048])
    @pytest.mark.parametrize("system", SYSTEMS, ids=["dirac1", "dirac0", "weyl+", "weyl-"])
    def test_matches_dense_sum(self, n, system):
        grid = fd.Grid(1, n, 40.0 / n)
        spinor = [1, 0.3, 1j, 0.2] if system.components == 4 else [1, 0.5j]
        psi = fd.make_bump(grid, 0.3, 1.0, spinor, system, momentum=2.0)
        x = grid.axis(0)
        for rho in (-0.4, 0.0, 0.3, 0.9, 3.0):
            # boost_e3 layout: grid nodes, as far out as the evolution guard allows
            reach = min(3.0, 16.5 / max(abs(np.sinh(rho)), 1e-12))
            nodes = x[np.abs(x) <= reach]
            # strip_probability_boosted layout: preimages y / cosh(rho) of grid nodes
            c = np.cosh(rho)
            preimages = x[np.abs(x) < 0.9 * c] / c
            for xs in (nodes, preimages):
                assert _rel_err(dyn.boost_values(psi, rho, xs), dense_boost_values(psi, rho, xs)) <= 1e-10

    def test_zero_and_one_output(self):
        psi = dirac_bump(n=512)
        assert dyn.boost_values(psi, 0.7, np.array([])).shape == (0, 4)
        one = np.array([0.4])
        assert _rel_err(dyn.boost_values(psi, 0.7, one), dense_boost_values(psi, 0.7, one)) <= 1e-10

    def test_uneven_outputs_raise(self):
        psi = dirac_bump(n=512)
        with pytest.raises(NotEvenlySpaced):
            dyn.boost_values(psi, 0.7, np.array([0.0, 0.1, 0.3]))

    @pytest.mark.parametrize("m", [1, 59, 589, 1179])
    @pytest.mark.parametrize("d", [2, 4])
    def test_nufft1_matches_direct_sum(self, m, d):
        r = np.random.default_rng(m * d)
        theta = r.uniform(-3.0 * np.pi, 9.0 * np.pi, 3000)
        c = r.normal(size=(3000, d)) + 1j * r.normal(size=(3000, d))
        direct = np.exp(1j * np.outer(np.arange(m), theta)) @ c
        assert _rel_err(fd.nufft1(theta, c, m), direct) <= 1e-11

    def test_boost_imports_no_scipy(self):
        code = (
            "import sys\n"
            "from causalfermion import algebra as al, dynamics as dyn, field as fd\n"
            "g = fd.Grid(1, 512, 16.0 / 512)\n"
            "psi = fd.make_bump(g, 0.0, 1.0, [1, 0, 0, 0], al.Dirac(1.0), guard=2.0)\n"
            "dyn.boost_e3(psi, 0.5)\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(dyn.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr


class TestMomentumOperator:
    SYSTEMS = [al.Dirac(0.0), al.Dirac(1.0), al.Weyl(+1), al.Weyl(-1)]
    IDS = ["dirac0", "dirac1", "weyl+", "weyl-"]

    @staticmethod
    def random_momentum_field(grid, system, seed):
        r = np.random.default_rng(seed)
        shape = (grid.n,) * grid.dim + (system.components,)
        vals = r.normal(size=shape) + 1j * r.normal(size=shape)
        return fd.SpinorField(grid, system, "momentum", vals)

    @pytest.mark.parametrize("grid", [fd.Grid(1, 64, 0.2), fd.Grid(3, 8, 0.5)], ids=["1d", "3d"])
    @pytest.mark.parametrize("system", SYSTEMS, ids=IDS)
    def test_h_apply_matches_algebra_at_every_site(self, grid, system):
        phi = self.random_momentum_field(grid, system, 3)
        got = dyn.h_apply(phi, phi.values)
        if grid.dim == 1:
            momenta = [(0.0, 0.0, pk) for pk in grid.paxis()]  # the 1D lane runs along e3
        else:
            momenta = np.stack(np.meshgrid(*(grid.paxis(),) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        flat = phi.values.reshape(-1, system.components)
        want = np.array([pointwise_h(system, p) @ v for p, v in zip(momenta, flat)])
        assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", [fd.Grid(1, 64, 0.2), fd.Grid(3, 8, 0.5)], ids=["1d", "3d"])
    @pytest.mark.parametrize("system", SYSTEMS, ids=IDS)
    def test_energy_projectors(self, grid, system):
        phi = self.random_momentum_field(grid, system, 5)
        plus = dyn.energy_projector_apply(phi, +1)
        minus = dyn.energy_projector_apply(phi, -1)
        scale = np.max(np.abs(phi.values))
        assert np.max(np.abs(plus + minus - phi.values)) <= 1e-14 * scale
        origin = (0,) * grid.dim
        # the massless p = 0 cell is pinned at 1/2, so it is no projector there
        regular = np.ones((grid.n,) * grid.dim, dtype=bool)
        regular[origin] = system.m > 0.0
        for eta, once in ((+1, plus), (-1, minus)):
            twice = dyn.energy_projector_apply(dataclasses.replace(phi, values=once), eta)
            assert np.max(np.abs(twice - once)[regular]) <= 1e-13 * scale
        if system.m == 0.0:
            assert np.array_equal(plus[origin], 0.5 * phi.values[origin])
            assert np.array_equal(minus[origin], 0.5 * phi.values[origin])


def dense_h_apply(field, vals):
    """Oracle: h(p) vals as a sum of dense (..., d) @ (d, d) products, one per term."""
    g, s = field.grid, field.system
    mesh = [pk[..., None] for pk in g.momentum_mesh()]
    axes = (2,) if g.dim == 1 else (0, 1, 2)
    if s.kind == "dirac":
        terms = [(pk, al.ALPHA[k]) for pk, k in zip(mesh, axes)] + [(s.m, al.BETA)]
    else:
        terms = [(s.chi * pk, al.SIGMA[k]) for pk, k in zip(mesh, axes)]
    (c0, m0), *rest = terms
    out = vals @ m0.T
    out *= c0
    for c, mat in rest:
        term = vals @ mat.T
        term *= c
        out += term
    return out


class TestSignedPermutationKernel:
    SYSTEMS = [al.Dirac(0.0), al.Dirac(1.3), al.Weyl(+1), al.Weyl(-1)]
    IDS = ["dirac0", "dirac1.3", "weyl+", "weyl-"]

    @pytest.mark.parametrize("grid", [fd.Grid(1, 256, 0.1), fd.Grid(3, 16, 0.4)], ids=["1d", "3d"])
    @pytest.mark.parametrize("system", SYSTEMS, ids=IDS)
    def test_bitwise_equal_to_dense_product(self, grid, system):
        phi = TestMomentumOperator.random_momentum_field(grid, system, 17)
        got = dyn.h_apply(phi, phi.values)
        want = dense_h_apply(phi, phi.values)
        assert got.shape == want.shape
        assert np.array_equal(got.view(float), want.view(float))

    def test_matrices_are_signed_permutations(self):
        # the kernel's assumption: one nonzero, +-1 or +-i, per row
        for mat in [*al.ALPHA, al.BETA, *al.SIGMA]:
            nonzero = mat != 0
            assert np.all(nonzero.sum(axis=1) == 1)
            assert np.all(np.isin(mat[nonzero], (1, -1, 1j, -1j)))


def _dft_kernels(g):
    """Per-axis e^{-i p x} on the grid's own axes, and the momenta p."""
    p = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.dx)
    return p, [np.exp(-1j * np.outer(p, g.origin[k] + g.dx * np.arange(g.n))) for k in range(g.dim)]


def oracle_momentum(field):
    """phi(p) = (2 pi)^{-dim/2} sum_x dx^dim e^{-i p.x} psi(x) as a direct sum (no FFT, no cached phase)."""
    g = field.grid
    _, kern = _dft_kernels(g)
    spec = "ax,xd->ad" if g.dim == 1 else "ax,by,cz,xyzd->abcd"
    return np.einsum(spec, *kern, field.values, optimize=True) * (g.dx / np.sqrt(2.0 * np.pi)) ** g.dim


def oracle_evolve(field, t, eta=None):
    """exp(i t h(p)) psi, or exp(i t eta eps(p)) psi for eta = +-1, by direct Fourier sums.

    h(p) and its exponential (through eigh) are built site by site from the
    algebra module, and the Fourier pair from the grid's axes: no FFT, no
    cached table, no cos/sin formula.
    """
    g, system = field.grid, field.system
    p, kern = _dft_kernels(g)
    phi = oracle_momentum(field)
    if g.dim == 1:
        momenta = [(0.0, 0.0, pk) for pk in p]  # the 1D lane runs along e3
    else:
        momenta = np.stack(np.meshgrid(p, p, p, indexing="ij"), axis=-1).reshape(-1, 3)
    if eta is None:
        w, v = np.linalg.eigh(np.array([pointwise_h(system, pk) for pk in momenta]))
        u = np.einsum("sij,sj,skj->sik", v, np.exp(1j * t * w), v.conj())
    else:
        phase = np.exp(1j * t * eta * np.array([al.energy(np.asarray(pk), system.m) for pk in momenta]))
        u = phase[:, None, None] * np.eye(system.components)
    d = system.components
    phi = np.einsum("sij,sj->si", u, phi.reshape(-1, d)).reshape(phi.shape)
    back = "xa,ad->xd" if g.dim == 1 else "xa,yb,zc,abcd->xyzd"
    vals = np.einsum(back, *(k.conj().T for k in kern), phi, optimize=True)
    return vals * (g.dp / np.sqrt(2.0 * np.pi)) ** g.dim


def random_position_field(grid, system, seed):
    r = np.random.default_rng(seed)
    shape = (grid.n,) * grid.dim + (system.components,)
    return fd.SpinorField(grid, system, "position", r.normal(size=shape) + 1j * r.normal(size=shape))


class TestSpectralKernel:
    """The cached-table kernel against an oracle that caches nothing."""

    SYSTEMS = [al.Dirac(0.0), al.Dirac(1.0), al.Weyl(+1), al.Weyl(-1)]
    IDS = ["dirac0", "dirac1", "weyl+", "weyl-"]
    GRIDS = [fd.Grid(1, 64, 0.25), fd.Grid(3, 8, 0.5, (-2.0, -1.75, -2.25))]

    @staticmethod
    def assert_momentum_matches_oracle(field):
        want = oracle_momentum(field)
        assert np.max(np.abs(field.to_momentum().values - want)) <= 1e-13 * np.max(np.abs(want))

    @staticmethod
    def assert_matches_oracle(field, t, eta=None):
        if eta is None:
            got = dyn.evolve_causal(field, t, guard=False)
        else:
            got = dyn.evolve_newton_wigner(field, t, eta, guard=False)
        want = oracle_evolve(field, t, eta)
        assert got.rep == "position"
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want)), (t, eta)

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "3d"])
    @pytest.mark.parametrize("system", SYSTEMS, ids=IDS)
    def test_evolutions_match_oracle(self, grid, system):
        # random values fill every momentum cell, the massless p = 0 cell included
        psi = random_position_field(grid, system, 7)
        self.assert_momentum_matches_oracle(psi)
        for t in (0.0, 1e-9, -1e-9, 1.3):
            for eta in (None, +1, -1):
                self.assert_matches_oracle(psi, t, eta)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_no_stale_table(self, dim):
        dyn._energy.cache_clear()
        fd._axis_factors.cache_clear()
        n = 64 if dim == 1 else 8
        a = fd.Grid(dim, n, 0.25)
        b = fd.Grid(dim, n, 0.3)  # same n, other dx
        c = fd.Grid(dim, n, 0.3, (-5.0,) * dim)  # other origin
        steps = [(a, al.Dirac(1.0)), (b, al.Dirac(1.0)), (c, al.Dirac(1.0)),
                 (c, al.Dirac(0.5)), (c, al.Weyl(+1)), (c, al.Weyl(-1))]
        for seed, (grid, system) in enumerate(steps):
            psi = random_position_field(grid, system, seed)
            # the origin phases cancel in an evolution, so check the momentum representation too
            self.assert_momentum_matches_oracle(psi)
            self.assert_matches_oracle(psi, 1.3)
            self.assert_matches_oracle(psi, 1.3, eta=+1)

    def test_tables_are_read_only_and_per_axis(self):
        for grid in self.GRIDS:
            dyn.evolve_causal(random_position_field(grid, al.Dirac(1.0), 1), 0.5, guard=False)
            eps = dyn._energy(grid, 1.0)
            with pytest.raises(ValueError):
                eps[(0,) * grid.dim] = 0.0
            for sign in (-1, +1):
                factors = fd._axis_factors(grid, sign)
                # O(n) per axis: no n^3 table outlives a call
                assert [f.shape for f in factors] == [(grid.n,)] * grid.dim
                with pytest.raises(ValueError):
                    factors[0][0] = 0.0
