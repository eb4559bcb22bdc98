import warnings

import numpy as np
import pytest

from causalfermion import algebra as al

rng = np.random.default_rng(101)


def is_unitary(m):
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= al.UNITARY_TOL)


def rand_sl2():
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a / np.sqrt(np.linalg.det(a))


def rand_su2():
    th = rng.normal(size=3)
    n = np.linalg.norm(th)
    return np.cos(n / 2) * al.I2 + 1j * np.sin(n / 2) * sum(
        th[k] / n * al.SIGMA[k] for k in range(3)
    )


class TestHamiltonians:
    def test_rest_mass_is_beta(self):
        h = al.Dirac(1.0).hamiltonian([0, 0, 0])
        assert np.allclose(h, al.BETA)
        assert np.allclose(sorted(np.linalg.eigvalsh(h)), [-1, -1, 1, 1])

    def test_massless_axis_is_alpha3(self):
        h = al.Dirac(0.0).hamiltonian([0, 0, 1])
        assert np.allclose(h, al.ALPHA[2])
        assert np.allclose(sorted(np.linalg.eigvalsh(h)), [-1, -1, 1, 1])

    def test_square_identity(self):
        h = al.Dirac(0.0).hamiltonian([3, 4, 0])
        assert np.max(np.abs(h @ h - 25.0 * np.eye(4))) < 1e-12

    def test_weyl_axis(self):
        assert np.allclose(al.Weyl(+1).hamiltonian([0, 0, 1]), al.SIGMA[2])
        assert np.allclose(al.Weyl(-1).hamiltonian([0, 0, 1]), -al.SIGMA[2])

    def test_weyl_spectrum(self):
        for _ in range(20):
            p = rng.normal(size=3)
            ev = np.linalg.eigvalsh(al.Weyl(+1).hamiltonian(p))
            assert np.allclose(sorted(ev), [-np.linalg.norm(p), np.linalg.norm(p)])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            al.Dirac(-1.0)

    def test_nan_mass_rejected(self):
        # m < 0 is False for NaN, so the check must be not m >= 0
        with pytest.raises(ValueError, match="^mass must be >= 0$"):
            al.Dirac(np.nan)

    @pytest.mark.parametrize("chi", [0, 2])
    def test_chirality_other_than_plus_minus_one_rejected(self, chi):
        with pytest.raises(ValueError):
            al.Weyl(chi)

    def test_hermitian(self):
        for _ in range(20):
            h = al.Dirac(0.7).hamiltonian(rng.normal(size=3))
            assert np.max(np.abs(h - h.conj().T)) <= 1e-14


class TestProjectors:
    def test_energy_takes_only_3_vectors(self):
        assert al.energy([1.0, 2.0, 2.0], 0.0) == 3.0
        for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], 2.0, np.zeros((3, 3))):
            with pytest.raises(ValueError):
                al.energy(bad, 1.0)

    def test_rest_projector(self):
        assert np.allclose(al.Dirac(1.0).projector([0, 0, 0], +1), 0.5 * (np.eye(4) + al.BETA))

    def test_identities_random(self):
        # 1000 random (p, m): completeness, orthogonality, eigen-relation
        worst_comp = worst_orth = worst_eig = worst_idem = 0.0
        for _ in range(1000):
            p = rng.normal(size=3) * 3
            m = abs(rng.normal()) + 0.05
            eps = al.energy(p, m)
            pp = al.Dirac(m).projector(p, +1)
            pm = al.Dirac(m).projector(p, -1)
            h = al.Dirac(m).hamiltonian(p)
            worst_comp = max(worst_comp, np.max(np.abs(pp + pm - np.eye(4))))
            worst_orth = max(worst_orth, np.max(np.abs(pp @ pm)))
            worst_idem = max(worst_idem, np.max(np.abs(pp @ pp - pp)))
            worst_eig = max(worst_eig, np.max(np.abs(h @ pp - eps * pp)) / eps)
        assert worst_comp <= 1e-13
        assert worst_orth <= 1e-13
        assert worst_idem <= 1e-14
        assert worst_eig <= 1e-12

    def test_massless_origin_raises(self):
        with pytest.raises(ValueError, match="energy projector singular at p = 0 for m = 0"):
            al.Dirac(0.0).projector([0, 0, 0], +1)
        with pytest.raises(ValueError, match="energy projector singular at p = 0 for m = 0"):
            al.Weyl(+1).projector([0, 0, 0], +1)

    def test_weyl_dilation_invariance(self):
        p = rng.normal(size=3)
        assert np.allclose(al.Weyl(+1).projector(p, -1), al.Weyl(+1).projector(7.0 * p, -1))


#: the three spinor representations s(A): Dirac, Weyl chi = +1 and chi = -1
SYSTEMS = (al.Dirac(), al.Weyl(+1), al.Weyl(-1))


class TestBoostRepAndTimeReversal:
    def test_identity(self):
        for system in SYSTEMS:
            assert np.allclose(system.boost_rep(al.I2), np.eye(system.components))

    def test_axis_boost_diagonal(self):
        s = al.Dirac().boost_rep(al.boost_matrix(1.0))
        expect = np.diag([np.exp(0.5), np.exp(-0.5), np.exp(-0.5), np.exp(0.5)])
        assert np.max(np.abs(s - expect)) <= 1e-14

    @pytest.mark.parametrize("kind, chi, signs", [
        ("dirac", +1, (1, -1, -1, 1)), ("weyl", +1, (1, -1)), ("weyl", -1, (-1, 1)),
    ])
    def test_large_rapidity_axis_boost(self, kind, chi, signs):
        # cosh^2 - sinh^2 of rho/2 would leave det A - 1 = -1.4e-8 at rho = 20, far past UNITARY_TOL
        rho = 20.0
        system = al.Dirac() if kind == "dirac" else al.Weyl(chi)
        s = system.boost_rep(al.boost_matrix(rho))
        expect = np.exp(0.5 * rho * np.array(signs, dtype=float))
        assert np.max(np.abs(np.diag(s) / expect - 1.0)) <= 1e-14
        assert np.count_nonzero(s - np.diag(np.diag(s))) == 0

    def test_group_law(self):
        for system in SYSTEMS:
            for _ in range(20):
                a1, a2 = rand_sl2(), rand_sl2()
                lhs = system.boost_rep(a1) @ system.boost_rep(a2)
                assert np.max(np.abs(lhs - system.boost_rep(a1 @ a2))) <= 1e-12

    def test_su2_unitary(self):
        for system in SYSTEMS:
            assert is_unitary(system.boost_rep(rand_su2()))

    def test_not_unimodular(self):
        for system in SYSTEMS:
            with pytest.raises(ValueError, match="^det A = "):
                system.boost_rep(2.0 * al.I2)

    @pytest.mark.parametrize("system, a", [
        (al.Dirac(), np.full((2, 2), np.nan)), (al.Weyl(+1), al.boost_matrix(np.nan)),
    ], ids=["dirac-nan-matrix", "weyl-nan-rapidity"])
    def test_nan_is_not_unimodular(self, system, a):
        # finiteness is checked before det A, which would warn on a NaN entry before the check fails
        # (pytest's settings turn no warning into an error: the filter below does, for this call)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^A = .* has a non-finite entry$"):
                system.boost_rep(a)

    def test_time_reversal_matrices(self):
        w = al.Dirac().time_reversal()
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = -al.SIGMA[1]
        block[2:, 2:] = -al.SIGMA[1]
        assert np.allclose(w, block)
        for chi in (+1, -1):
            assert np.allclose(al.Weyl(chi).time_reversal(), -al.SIGMA[1])
        assert is_unitary(w)

    @pytest.mark.parametrize("system", SYSTEMS, ids=["dirac", "weyl+", "weyl-"])
    def test_rotation_covariance(self, system):
        # s(B) h(p) s(B)^{-1} = h(R(B) p) for B in SU(2), with R_ij = tr(sigma_i B sigma_j B^*) / 2
        for _ in range(20):
            b, p = rand_su2(), rng.normal(size=3)
            rot = np.real(np.einsum("iab,bc,jcd,da->ij", al.SIGMA, b, al.SIGMA, b.conj().T)) / 2.0
            s = system.boost_rep(b)
            assert np.max(np.abs(s @ system.hamiltonian(p) @ s.conj().T - system.hamiltonian(rot @ p))) <= 1e-12

    @pytest.mark.parametrize("system", SYSTEMS, ids=["dirac", "weyl+", "weyl-"])
    def test_time_reversal_flips_momentum(self, system):
        # omega conj(h(p)) omega^{-1} = h(-p), so T maps pi^eta(p) to pi^eta(-p)
        w = system.time_reversal()
        for _ in range(20):
            p = rng.normal(size=3)
            assert np.max(np.abs(w @ np.conj(system.hamiltonian(p)) @ w.conj().T - system.hamiltonian(-p))) <= 1e-14
            for eta in (+1, -1):
                got = w @ np.conj(system.projector(p, eta)) @ w.conj().T
                assert np.max(np.abs(got - system.projector(-p, eta))) <= 1e-14

    @pytest.mark.parametrize("system", SYSTEMS, ids=["dirac", "weyl+", "weyl-"])
    def test_time_reversal_reverses_boosts(self, system):
        # omega conj(s(A)) omega^{-1} = s(A^{*-1}): the axis boost A_rho goes to A_{-rho}
        w = system.time_reversal()
        for rho in (0.3, -1.7, 6.0):
            got = w @ np.conj(system.boost_rep(al.boost_matrix(rho))) @ w.conj().T
            assert np.max(np.abs(got - system.boost_rep(al.boost_matrix(-rho)))) <= 1e-14 * np.exp(abs(rho) / 2)
        for _ in range(20):
            a = rand_sl2()
            got = w @ np.conj(system.boost_rep(a)) @ w.conj().T
            assert np.max(np.abs(got - system.boost_rep(np.linalg.inv(a.conj().T)))) <= 1e-12

    def test_antiunitary_square_is_minus_one(self):
        # T^2 psi = omega conj(omega) psi = -psi for every system
        for system in SYSTEMS:
            w = system.time_reversal()
            assert np.allclose(w @ np.conj(w), -np.eye(w.shape[0]))


def test_sinc_series_switch():
    w = np.array([0.0, 1e-6, 1e-3, 0.5])
    expect = np.array([1.0, np.sin(1e-6) / 1e-6, np.sin(1e-3) / 1e-3, np.sin(0.5) / 0.5])
    assert np.max(np.abs(al.sinc(w) - expect)) <= 1e-15
