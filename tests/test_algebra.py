import numpy as np
import pytest

from causalfermion import algebra as al

rng = np.random.default_rng(101)


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


class TestCanonicalCrossSection:
    def test_rest_is_identity(self):
        assert np.allclose(al.canonical_cross_section([1.5, 0, 0, 0]), al.I2)

    def test_inverse_pair(self):
        for _ in range(30):
            p = rng.normal(size=3)
            m = abs(rng.normal()) + 0.2
            eps = al.energy(p, m)
            qp = al.canonical_cross_section(np.r_[eps, p])
            qm = al.canonical_cross_section(np.r_[-eps, p])
            assert np.max(np.abs(qp @ qm - al.I2)) <= 1e-12

    def test_square_formula(self):
        for _ in range(30):
            p = rng.normal(size=3)
            m = abs(rng.normal()) + 0.2
            eps = al.energy(p, m)
            q = al.canonical_cross_section(np.r_[eps, p])
            ksig = eps * al.I2 + np.einsum("k,kij->ij", p, al.SIGMA)
            assert np.max(np.abs(q @ q - ksig / m)) <= 1e-13

    def test_maps_rest_vector(self):
        for _ in range(30):
            p = rng.normal(size=3)
            m = abs(rng.normal()) + 0.2
            k = np.r_[al.energy(p, m), p]
            q = al.canonical_cross_section(k)
            assert np.max(np.abs(al.lorentz_action(q, [m, 0, 0, 0]) - k)) <= 1e-12

    def test_not_timelike(self):
        with pytest.raises(ValueError, match=r"^k\.k = .* is not positive$"):
            al.canonical_cross_section([1.0, 2.0, 0, 0])


class TestHelicityCrossSection:
    def test_positive_axis(self):
        assert np.allclose(al.helicity_cross_section([0, 0, 2.0]), al.I2)

    def test_negative_axis(self):
        assert np.allclose(al.helicity_cross_section([0, 0, -1.0]), -1j * al.SIGMA[1])

    def test_rotates_sigma3(self):
        for _ in range(30):
            p = rng.normal(size=3)
            p /= np.linalg.norm(p)
            b = al.helicity_cross_section(p)
            target = np.einsum("k,kij->ij", p, al.SIGMA)
            assert np.max(np.abs(b @ al.SIGMA[2] @ np.linalg.inv(b) - target)) <= 1e-13

    def test_su2_and_scaling(self):
        p = rng.normal(size=3)
        b = al.helicity_cross_section(p)
        assert al.is_unitary(b)
        assert abs(np.linalg.det(b) - 1.0) <= 1e-13
        assert np.allclose(al.helicity_cross_section(3.0 * p), b)

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="helicity cross section undefined at p = 0"):
            al.helicity_cross_section([0.0, 0.0, 0.0])


class TestWignerMassive:
    def test_identity_at_zero_rapidity(self):
        assert np.allclose(al.wigner_rotation_massive([1, 2, 3], 1.0, +1, 0.0), al.I2)

    def test_axis_momentum_diagonal_real(self):
        r = al.wigner_rotation_massive([0, 0, 1.7], 0.8, +1, 1.1)
        assert abs(r[0, 1]) + abs(r[1, 0]) <= 1e-14
        assert abs(np.imag(r[0, 0])) + abs(np.imag(r[1, 1])) <= 1e-14

    def test_unitary_random(self):
        for _ in range(200):
            r = al.wigner_rotation_massive(rng.normal(size=3), abs(rng.normal()) + 0.1,
                                           rng.choice([-1, 1]), rng.normal())
            assert np.max(np.abs(r @ r.conj().T - al.I2)) <= 1e-13


class TestWignerMassless:
    def test_su2_input_returns_itself(self):
        b = rand_su2()
        p4 = np.r_[1.0, rng.normal(size=3)]
        p4[0] = np.linalg.norm(p4[1:])
        assert np.max(np.abs(al.wigner_rotation_massless(p4, b) - b)) <= 1e-12

    def test_axis_boost_gives_identity(self):
        r = al.wigner_rotation_massless([1, 0, 0, 1], al.boost_matrix(0.9))
        assert np.max(np.abs(r - al.I2)) <= 1e-12

    def test_dilation_invariance_exact(self):
        a = rand_sl2()
        p4 = np.r_[0.0, rng.normal(size=3)]
        p4[0] = np.linalg.norm(p4[1:])
        for lam in (2.0, 10.0):
            r1 = al.wigner_rotation_massless(lam * p4, a)
            r2 = al.wigner_rotation_massless(p4, a)
            assert np.max(np.abs(r1 - r2)) <= 1e-13

    def test_cocycle(self):
        for _ in range(20):
            a1, a2 = rand_sl2(), rand_sl2()
            p4 = np.r_[0.0, rng.normal(size=3)]
            p4[0] = np.linalg.norm(p4[1:])
            q4 = al.lorentz_action(np.linalg.inv(a1), p4)
            lhs = al.wigner_rotation_massless(p4, a1) @ al.wigner_rotation_massless(q4, a2)
            rhs = al.wigner_rotation_massless(p4, a1 @ a2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_massless_limit_monotone(self):
        p = rng.normal(size=3)
        rho = 0.8
        r0 = al.wigner_rotation_massless(np.r_[np.linalg.norm(p), p], al.boost_matrix(rho))
        errs = []
        for m in (1e-3, 1e-6):
            rm = al.wigner_rotation_massive(p, m, +1, rho)
            errs.append(np.max(np.abs(rm - r0)))
        assert errs[1] < errs[0]
        assert errs[1] <= 1e-5

    def test_not_lightlike(self):
        with pytest.raises(ValueError, match=r"^p\.p = .* for p = "):
            al.wigner_rotation_massless([1.0, 0, 0, 0.5], al.boost_matrix(0.3))


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
            assert al.is_unitary(system.boost_rep(rand_su2()))

    def test_not_unimodular(self):
        for system in SYSTEMS:
            with pytest.raises(ValueError, match="^det A = "):
                system.boost_rep(2.0 * al.I2)

    def test_time_reversal_matrices(self):
        w = al.Dirac().time_reversal()
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = -al.SIGMA[1]
        block[2:, 2:] = -al.SIGMA[1]
        assert np.allclose(w, block)
        for chi in (+1, -1):
            assert np.allclose(al.Weyl(chi).time_reversal(), -al.SIGMA[1])
        assert al.is_unitary(w)

    def test_antiunitary_square_is_minus_one(self):
        # T^2 psi = omega conj(omega) psi = -psi for every system
        for system in SYSTEMS:
            w = system.time_reversal()
            assert np.allclose(w @ np.conj(w), -np.eye(w.shape[0]))


class TestPolarDecomposition:
    def test_recompose(self):
        for _ in range(50):
            a = rand_sl2()
            bp, rho, b = al.polar_decompose_sl2(a)
            a_rho = np.diag([np.exp(rho / 2), np.exp(-rho / 2)])
            assert np.max(np.abs(bp @ a_rho @ b - a)) <= 1e-12
            assert al.is_unitary(bp) and al.is_unitary(b)

    def test_su2_short_circuit(self):
        b = rand_su2()
        bp, rho, bb = al.polar_decompose_sl2(b)
        assert rho == 0.0
        assert np.allclose(bp, b) and np.allclose(bb, al.I2)


def test_minkowski_square():
    assert al.minkowski_square([2.0, 1.0, 0.0, 1.0]) == 2.0


def test_sinc_series_switch():
    w = np.array([0.0, 1e-6, 1e-3, 0.5])
    expect = np.array([1.0, np.sin(1e-6) / 1e-6, np.sin(1e-3) / 1e-3, np.sin(0.5) / 0.5])
    assert np.max(np.abs(al.sinc(w) - expect)) <= 1e-15
