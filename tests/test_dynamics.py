import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from causalfermion import algebra as al
from causalfermion import dynamics as dyn
from causalfermion import field as fd
from causalfermion import frontier as fr
from causalfermion.errors import GuardViolation

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
            return p * (al.ALPHA[2] @ v) + al.BETA @ v

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

    def test_evolutions_leave_their_input_as_it_was(self):
        psi = dirac_bump()
        kept = psi.values.copy()
        dyn.evolve_causal(psi, 0.7)
        dyn.evolve_newton_wigner(psi, 0.7)
        assert np.array_equal(psi.values, kept)


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

    def test_stream_is_each_time_on_its_own_bit_for_bit(self, monkeypatch):
        psi = dirac_bump(m=0.0)
        kept = psi.values.copy()
        times = (0.5, -1.0, 0.0, 2.0)
        guards, forward = [], []
        check, to_momentum = dyn.check_guard, fd.SpinorField.to_momentum
        monkeypatch.setattr(dyn, "check_guard", lambda field, horizon: guards.append(horizon) or check(field, horizon))
        monkeypatch.setattr(fd.SpinorField, "to_momentum", lambda self: forward.append(1) or to_momentum(self))
        got = [(c, nw, psi_t.values.copy()) for c, nw, psi_t in dyn.newton_wigner_leaks(psi, times)]
        # one guard check at max |t| and one forward FFT serve every time
        assert (guards, len(forward)) == ([2.0], 1)
        lo, hi = psi.support_bounds()
        for t, (causal_leak, nw_leak, values) in zip(times, got):
            outside = ~fd.RegionMask.strip(psi.grid, lo - abs(t), hi + abs(t))
            causal = dyn.evolve_causal(psi, t)
            assert np.array_equal(values, causal.values), t
            assert causal_leak == causal.probability(outside), t
            assert nw_leak == dyn.evolve_newton_wigner(psi, t).probability(outside), t
        assert np.array_equal(psi.values, kept)

    def test_stream_guard_raises_before_any_evolution(self, monkeypatch):
        psi = dirac_bump(n=256, length=6.0, width=1.0, guard=0.0)
        evolved = []
        monkeypatch.setattr(dyn, "evolution_multiplier_apply", lambda *args, **kw: evolved.append(args[1]))
        with pytest.raises(GuardViolation):
            next(dyn.newton_wigner_leaks(psi, [0.0, 0.5, -5.0]))
        assert evolved == []

    def test_peak_memory_of_a_stream(self):
        # phi, h(p) phi and one work array that the foil and the causal psi_t share: three
        # (4, 2^15) complex arrays, plus O(n) rows (eps, the cached and the new multiplier rows,
        # the foil row, masks and densities), here six complex rows of 16 n bytes
        grid = fd.Grid(1, 2**15, 16.0 / 2**15)
        psi = fd.make_bump(grid, 0.0, 1.0, [1, 0.3, 1j, 0], al.Dirac(1.0), guard=2.0)
        bound = 3 * psi.values.nbytes + 6 * 16 * grid.n

        def peak(stream):
            dyn._evolution_rows.cache_clear()
            tracemalloc.start()
            try:
                for _, _, psi_t in stream(psi, [0.5, 1.0, 2.0]):  # as the evolve command reads each time
                    psi_t.norm()
                    fr.support_edges(psi_t)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def fresh_per_time(field, times):
            # the foil and psi_t each in a new array: with the caller's last psi_t, five arrays
            lo, hi = field.support_bounds()
            phi = field.to_momentum()
            h_phi = dyn.h_apply(phi, phi.values)
            eps = field.grid.energy(field.system.m)
            for t in times:
                outside = ~fd.RegionMask.strip(field.grid, lo - t, hi + t)
                foil = dataclasses.replace(phi, values=phi.values * np.exp(1j * t * eps)).to_position()
                causal = dataclasses.replace(phi, values=dyn.evolution_multiplier_apply(phi, t, h_phi)).to_position()
                yield causal.probability(outside), foil.probability(outside), causal

        assert peak(dyn.newton_wigner_leaks) < bound
        assert peak(fresh_per_time) > bound


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
        amp = psi.values[0, np.argmin(np.abs(x))].real / np.exp(-1.0)
        scaled = np.where(
            np.abs(np.exp(rho) * x[sel]) < width,
            amp * np.exp(-width**2 / np.maximum(width**2 - (np.exp(rho) * x[sel]) ** 2, 1e-300)),
            0.0,
        )
        assert np.max(np.abs(boosted.values[0, sel] - np.exp(rho / 2) * scaled)) <= 1e-8

    def test_guard(self):
        psi = dirac_bump(n=1024, length=8.0, width=1.0, guard=0.5)
        with pytest.raises(GuardViolation):
            dyn.boost_e3(psi, 2.0)


def dense_boost_values(field, rho, x_out):
    """Direct O(N |x_out|) Fourier sum for the boosted field: the oracle for boost_values."""
    g = field.grid
    phi = field.to_momentum()
    p = g.paxis()
    eps = np.sqrt(p**2 + field.system.m**2)
    sites = phi.values.T  # (n, d): one spinor per row
    hphi = np.array([field.system.hamiltonian((0.0, 0.0, pk)) @ v for pk, v in zip(p, sites)])
    y0 = -np.sinh(rho) * x_out
    y3 = np.cosh(rho) * x_out
    carrier = np.exp(1j * np.outer(y3, p))
    c = np.cos(np.outer(y0, eps))
    s = y0[:, None] * al.sinc(np.outer(y0, eps))
    out = g.dp / np.sqrt(2.0 * np.pi) * ((carrier * c) @ sites - 1j * (carrier * s) @ hphi)
    return np.einsum("ij,xj->ix", field.system.boost_rep(al.boost_matrix(rho)), out)


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
        assert dyn.boost_values(psi, 0.7, np.array([])).shape == (4, 0)
        one = np.array([0.4])
        assert _rel_err(dyn.boost_values(psi, 0.7, one), dense_boost_values(psi, 0.7, one)) <= 1e-10

    def test_uneven_outputs_raise(self):
        psi = dirac_bump(n=512)
        with pytest.raises(ValueError, match="outputs must be evenly spaced"):
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
        shape = (system.components,) + (grid.n,) * grid.dim
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
        flat = phi.values.reshape(system.components, -1).T  # one spinor per site
        want = np.array([system.hamiltonian(p) @ v for p, v in zip(momenta, flat)])
        got = got.reshape(system.components, -1).T
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", [fd.Grid(1, 64, 0.2), fd.Grid(3, 8, 0.5)], ids=["1d", "3d"])
    @pytest.mark.parametrize("system", SYSTEMS, ids=IDS)
    def test_energy_projectors(self, grid, system):
        phi = self.random_momentum_field(grid, system, 5)
        plus = dyn.energy_projector_apply(phi, +1)
        minus = dyn.energy_projector_apply(phi, -1)
        scale = np.max(np.abs(phi.values))
        assert np.max(np.abs(plus + minus - phi.values)) <= 1e-14 * scale
        origin = (slice(None),) + (0,) * grid.dim  # every component at p = 0
        # the massless p = 0 cell is pinned at 1/2, so it is no projector there
        regular = np.ones((grid.n,) * grid.dim, dtype=bool)
        regular[origin[1:]] = system.m > 0.0
        for eta, once in ((+1, plus), (-1, minus)):
            twice = dyn.energy_projector_apply(dataclasses.replace(phi, values=once), eta)
            assert np.max(np.abs(twice - once)[:, regular]) <= 1e-13 * scale
        if system.m == 0.0:
            assert np.array_equal(plus[origin], 0.5 * phi.values[origin])
            assert np.array_equal(minus[origin], 0.5 * phi.values[origin])


def dense_h_apply(field, vals):
    """Oracle: h(p) vals as a sum of dense (d, d) @ (d, sites) products, one per term."""
    g, s = field.grid, field.system
    mesh = g.momentum_mesh()
    axes = (2,) if g.dim == 1 else (0, 1, 2)
    if isinstance(s, al.Dirac):
        terms = [(pk, al.ALPHA[k]) for pk, k in zip(mesh, axes)] + [(s.m, al.BETA)]
    else:
        terms = [(s.chi * pk, al.SIGMA[k]) for pk, k in zip(mesh, axes)]
    (c0, m0), *rest = terms
    out = (m0 @ vals.reshape(len(vals), -1)).reshape(vals.shape)
    out *= c0
    for c, mat in rest:
        term = (mat @ vals.reshape(len(vals), -1)).reshape(vals.shape)
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
        # the kernel's assumption, for every matrix a system class declares: one nonzero, +-1 or +-i, per row
        for mat in [*al.Dirac.momentum_matrices, al.Dirac.mass_matrix, *al.Weyl.momentum_matrices]:
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
    spec = "ax,dx->da" if g.dim == 1 else "ax,by,cz,dxyz->dabc"
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
        w, v = np.linalg.eigh(np.array([system.hamiltonian(pk) for pk in momenta]))
        u = np.einsum("sij,sj,skj->sik", v, np.exp(1j * t * w), v.conj())
    else:
        phase = np.exp(1j * t * eta * np.array([al.energy(np.asarray(pk), system.m) for pk in momenta]))
        u = phase[:, None, None] * np.eye(system.components)
    d = system.components
    phi = np.einsum("sij,js->is", u, phi.reshape(d, -1)).reshape(phi.shape)
    back = "xa,da->dx" if g.dim == 1 else "xa,yb,zc,dabc->dxyz"
    vals = np.einsum(back, *(k.conj().T for k in kern), phi, optimize=True)
    return vals * (g.dp / np.sqrt(2.0 * np.pi)) ** g.dim


def random_position_field(grid, system, seed):
    r = np.random.default_rng(seed)
    shape = (system.components,) + (grid.n,) * grid.dim
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
        for cached in (fd.Grid._tables, fd.Grid.energy, dyn._evolution_rows):
            cached.cache_clear()
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
            # the same times on every step: a row or mesh kept from an earlier grid, mass or chi would be read
            self.assert_matches_oracle(psi, 1.3)
            self.assert_matches_oracle(psi, -1.3)
            self.assert_matches_oracle(psi, 1.3, eta=+1)
            phi = psi.to_momentum()
            assert np.array_equal(dyn.h_apply(phi, phi.values), dense_h_apply(phi, phi.values))

    def test_tables_are_read_only_and_per_axis(self):
        for grid in self.GRIDS:
            dyn.evolve_causal(random_position_field(grid, al.Dirac(1.0), 1), 0.5, guard=False)
            tables = [grid.energy(1.0), *dyn._evolution_rows(grid, 1.0, 0.5), *grid.momentum_mesh()]
            for table in tables:
                with pytest.raises(ValueError):
                    table[(0,) * table.ndim] = 0.0
            # the 3D mesh stays sparse: O(n) per axis
            assert [pk.size for pk in grid.momentum_mesh()] == [grid.n] * grid.dim
            for sign in (-1, +1):
                factors = grid._tables()["factors"][sign]
                # O(n) per axis: no n^3 table outlives a call
                assert [f.shape for f in factors] == [(grid.n,)] * grid.dim
                with pytest.raises(ValueError):
                    factors[0][0] = 0.0


class TestMultiplier:
    @pytest.mark.parametrize("grid", TestSpectralKernel.GRIDS, ids=["1d", "3d"])
    @pytest.mark.parametrize("system", TestSpectralKernel.SYSTEMS, ids=TestSpectralKernel.IDS)
    def test_new_array_or_over_h_phi_gives_the_bits_and_leaves_phi(self, grid, system):
        phi = random_position_field(grid, system, 5).to_momentum()
        kept = phi.values.copy()
        t = 0.7
        h_phi = dyn.h_apply(phi, phi.values)
        h_kept = h_phi.copy()
        fresh = dyn.evolution_multiplier_apply(phi, t, h_phi)
        assert np.array_equal(phi.values, kept) and np.array_equal(h_phi, h_kept)  # out=None writes neither
        # the multiplier as written before the stream: (h phi)(i sinc) + cos phi; addition commutes
        eps = grid.energy(system.m)
        s = np.divide(np.sin(t * eps), eps, out=np.full_like(eps, t), where=eps > 0)
        sum_first = dyn.h_apply(phi, kept) * (1j * s) + np.cos(t * eps) * kept
        assert np.array_equal(fresh, sum_first)
        # written over h(p) phi, as the last time of a stream is
        over = dyn.evolution_multiplier_apply(phi, t, h_phi, out=h_phi)
        assert over is h_phi and np.array_equal(over, fresh)
        assert np.array_equal(phi.values, kept)


class TestMirroredRows:
    """The rows evaluated on j = 0..n // 2 of the last axis and mirrored, against the whole-grid formula."""

    TIMES = (0.0, 1e-9, -1e-9, 1.3, -1.3)

    @staticmethod
    def assert_rows_are_the_whole_grid_formula(rows, eps, t):
        c, s = rows
        assert np.array_equal(c, np.cos(t * eps))
        assert np.array_equal(s, np.divide(np.sin(t * eps), eps, out=np.full_like(eps, t), where=eps > 0))
        assert np.all(s[eps == 0] == t)
        for eta in (+1, -1):
            assert np.array_equal(dyn._foil_row(eps, t, eta), np.exp(1j * t * eta * eps))

    @pytest.mark.parametrize("m", [1.0, 0.0])
    @pytest.mark.parametrize("grid", [fd.Grid(1, 64, 0.25), fd.Grid(3, 8, 0.3, (-1.1, 0.4, -0.7))],
                             ids=["64", "8^3-off-centre"])
    def test_evolution_rows(self, grid, m):
        dyn._evolution_rows.cache_clear()
        eps = grid.energy(m)
        assert np.count_nonzero(eps == 0) == (m == 0)
        for t in self.TIMES:
            self.assert_rows_are_the_whole_grid_formula(dyn._evolution_rows(grid, m, t), eps, t)

    @pytest.mark.parametrize("m", [1.0, 0.0])
    def test_odd_lane(self, m):
        # an odd n has no self-mirrored Nyquist cell: the mirror reads j = 1..(n - 1) / 2 back
        p = 2.0 * np.pi * np.fft.fftfreq(63, d=0.25)
        eps = np.sqrt(p * p + m * m)
        for t in self.TIMES:
            self.assert_rows_are_the_whole_grid_formula(dyn._multiplier_rows(eps, t), eps, t)


class TestEvolveTimes:
    """The stream against evolve_causal and against the direct-sum oracle."""

    GRIDS = [fd.Grid(1, 256, 0.1), fd.Grid(3, 16, 0.5, (-4.0, -3.75, -4.25))]

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "16^3"])
    @pytest.mark.parametrize("system", TestSpectralKernel.SYSTEMS, ids=TestSpectralKernel.IDS)
    def test_every_state_is_evolve_causal_bit_for_bit(self, grid, system):
        # random values fill every momentum cell, the massless eps = 0 cell at p = 0 included
        psi = random_position_field(grid, system, 11)
        kept = psi.values.copy()
        times = (0.9, -2.3, -0.9, 0.9)
        states = list(dyn.evolve_times(psi, times, guard=False))
        assert [s.rep for s in states] == ["position"] * 4
        # a multiplier that wrote into the shared phi or h(p) phi would change the repeated t1
        assert np.array_equal(states[3].values, states[0].values)
        for t, state in zip(times, states):
            assert np.array_equal(state.values, dyn.evolve_causal(psi, t, guard=False).values), t
        assert np.array_equal(psi.values, kept)
        want = oracle_evolve(psi, times[0])
        assert np.max(np.abs(states[0].values - want)) <= 1e-13 * np.max(np.abs(want))

    def test_rejects_momentum_fields(self):
        phi = dirac_bump().to_momentum()
        with pytest.raises(ValueError, match="position-representation"):
            next(dyn.evolve_times(phi, [0.5]))
