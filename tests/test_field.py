
import dataclasses
import re
import warnings

import numpy as np
import pytest

from causalfermion import algebra as al
from causalfermion import dynamics as dyn
from causalfermion import field as fd
from causalfermion.errors import GuardViolation

def random_field(grid, system, seed):
    r = np.random.default_rng(seed)
    shape = (system.components,) + (grid.n,) * grid.dim
    vals = r.normal(size=shape) + 1j * r.normal(size=shape)
    return fd.SpinorField(grid, system, "position", vals).normalized()


def masks_for_transforms(grid):
    """The masks that pin the pruned transforms: centred and edge balls, half-spaces, one site, all and none."""
    first = grid.axis()[0]
    corner = np.zeros((grid.n,) * 3, dtype=bool)
    corner[3, grid.n - 2, 5] = True
    return {
        "ball-1": fd.RegionMask.ball(grid, (0.0, 0.0, 0.0), 1.0),
        "ball-1.5": fd.RegionMask.ball(grid, (0.0, 0.0, 0.0), 1.5),
        # off-centre: the box reaches the last site of axis 0 and the first of axis 2
        "ball-edge": fd.RegionMask.ball(grid, (grid.axis()[-1], 0.4, first + 0.3), 1.5),
        "half-0": fd.RegionMask.half_space(grid, 0.0),
        "half+0.5": fd.RegionMask.half_space(grid, 0.5),
        "half-0.5": fd.RegionMask.half_space(grid, -0.5),
        "half-first": fd.RegionMask.half_space(grid, first + grid.dx),
        "one-site": fd.RegionMask(grid, corner),
        "full": fd.RegionMask.full(grid),
        "empty": fd.RegionMask(grid, np.zeros((grid.n,) * 3, dtype=bool)),
    }


class TestFourierDuality:
    def test_parseval_and_roundtrip_1d(self):
        grid = fd.Grid(1, 256, 10.0 / 256)
        for seed in range(100):
            psi = random_field(grid, al.Dirac(1.0), seed)
            phi = psi.to_momentum()
            assert abs(phi.norm_sq() - 1.0) <= 1e-12
            assert (phi.to_position() - psi).norm() <= 1e-12

    def test_parseval_and_roundtrip_3d(self):
        grid = fd.Grid(3, 16, 6.0 / 16)
        for seed in range(100):
            psi = random_field(grid, al.Weyl(+1), seed)
            phi = psi.to_momentum()
            assert abs(phi.norm_sq() - 1.0) <= 1e-12
            assert (phi.to_position() - psi).norm() <= 1e-12

    def test_single_spike_flat_modulus(self):
        grid = fd.Grid(1, 128, 8.0 / 128)
        vals = np.zeros((2, 128), dtype=complex)
        vals[0, 40] = 1.0
        psi = fd.SpinorField(grid, al.Weyl(+1), "position", vals)
        phi = psi.to_momentum()
        mod = np.abs(phi.values[0])
        assert np.max(mod) - np.min(mod) <= 1e-12 * np.max(mod)

    def test_gaussian_pair(self):
        # analytic pair: exp(-x^2/(2 s^2)) <-> s exp(-p^2 s^2 / 2)
        grid = fd.Grid(1, 1024, 40.0 / 1024)
        s = 1.3
        x = grid.axis()
        vals = np.zeros((2, grid.n), dtype=complex)
        vals[0] = np.exp(-(x**2) / (2 * s * s))
        psi = fd.SpinorField(grid, al.Weyl(+1), "position", vals)
        phi = psi.to_momentum()
        p = grid.paxis()
        expect = s * np.exp(-(p**2) * s * s / 2.0)
        assert np.max(np.abs(phi.values[0] - expect)) <= 1e-10

    def test_wrong_representation(self):
        grid = fd.Grid(1, 64, 1.0)
        psi = random_field(grid, al.Weyl(+1), 0)
        with pytest.raises(ValueError, match="to_position needs a momentum-representation field"):
            psi.to_position()

    @pytest.mark.parametrize("grid", [fd.Grid(1, 256, 10.0 / 256), fd.Grid(3, 32, 6.0 / 32)],
                             ids=["1d", "32^3"])
    def test_transforms_are_fftn_times_the_factor_bit_for_bit(self, grid):
        psi = random_field(grid, al.Dirac(1.0), 3)
        axes = tuple(range(1, grid.dim + 1))  # the site axes, after the component axis
        kept = psi.values.copy()
        phi = psi.to_momentum()
        assert np.array_equal(phi.values, np.fft.fftn(psi.values, axes=axes) * grid._tables()["factors"][-1])
        want = np.fft.ifftn(phi.values * grid._tables()["factors"][+1], axes=axes)
        mom = phi.values.copy()
        assert np.array_equal(phi.to_position().values, want)
        # out=None and to_momentum leave their input as it was
        assert np.array_equal(psi.values, kept) and np.array_equal(phi.values, mom)
        # into the momentum array itself: the same bits, and that array is the result
        back = phi.to_position(out=phi.values)
        assert back.values is phi.values and np.array_equal(back.values, want)

    @pytest.mark.parametrize("grid", [fd.Grid(3, 16, 8.0 / 16), fd.Grid(3, 32, 6.0 / 32)],
                             ids=["16^3", "32^3"])
    @pytest.mark.parametrize("region", ["ball-1", "ball-1.5", "ball-edge", "half-0", "half+0.5", "half-0.5",
                                        "half-first", "one-site", "full", "empty"])
    def test_masked_transforms_are_fftn_times_the_factor_bit_for_bit(self, grid, region):
        # a transform given a mask runs its FFT passes only on the lines mask.box() can reach;
        # forward it is fftn of the masked field, inverse ifftn followed by the mask, to the bit
        mask = masks_for_transforms(grid)[region]
        sites, axes = mask.sites, (1, 2, 3)
        psi = random_field(grid, al.Dirac(1.0), 5)
        phi = psi.to_momentum(mask=mask)
        assert np.array_equal(phi.values, np.fft.fftn(psi.values * sites, axes=axes) * grid._tables()["factors"][-1])
        want = np.fft.ifftn(phi.values * grid._tables()["factors"][+1], axes=axes) * sites
        assert np.array_equal(phi.to_position(mask=mask).values, want)
        # into the field's own array, as the measurement cascade runs them
        work = phi.values.copy()
        pos = dataclasses.replace(phi, values=work).to_position(out=work, mask=mask)
        assert pos.values is work and np.array_equal(work, want)
        again = pos.to_momentum(out=work, mask=mask)
        assert again.values is work
        assert np.array_equal(work, np.fft.fftn(want, axes=axes) * grid._tables()["factors"][-1])
        if region == "empty":
            assert not np.any(phi.values) and not np.any(work)

    @pytest.mark.parametrize("region", ["ball-1", "ball-edge", "half-first", "one-site", "full", "empty"])
    def test_box_is_the_smallest_box_of_the_sites(self, region):
        mask = masks_for_transforms(fd.Grid(3, 16, 8.0 / 16))[region]
        box = mask.box()
        outside = mask.sites.copy()
        outside[box] = False
        assert not np.any(outside)
        if region == "empty":
            assert box == (slice(0, 0),) * 3
        if region == "ball-edge":
            assert box[0].stop == mask.grid.n and box[2].start == 0
        for ax, cut in enumerate(box):  # every face of a nonempty box holds a site
            for face in (cut.start, cut.stop - 1) if cut.stop > cut.start else ():
                assert np.any(np.take(mask.sites, face, axis=ax))


class TestReductions:
    """norm_sq, inner and probability are einsums over the float views in numpy's own loop, never BLAS."""

    GRIDS = [fd.Grid(1, 4096, 16.0 / 4096), fd.Grid(3, 16, 0.5)]
    SYSTEMS = [al.Dirac(1.0), al.Weyl(+1)]

    @staticmethod
    def same_bits(got, want):
        return np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("grid", GRIDS, ids=["lane-2^12", "grid-16^3"])
    @pytest.mark.parametrize("system", SYSTEMS, ids=["dirac", "weyl"])
    def test_norm_sq_and_inner_match_the_einsum_oracle_bit_for_bit(self, grid, system):
        a, b = (random_field(grid, system, seed) for seed in (1, 2))
        w = grid.cell_measure("position")
        fa, fb = (f.values.view(float).ravel() for f in (a, b))  # re, im interleaved
        pairs = fb.reshape(-1, 2)
        i_b = np.stack([-pairs[:, 1], pairs[:, 0]], axis=1).ravel()  # the float view of i b
        got = a.inner(b)
        assert self.same_bits(got.real, w * np.einsum("i,i->", fa, fb))
        assert self.same_bits(got.imag, -w * np.einsum("i,i->", fa, i_b))
        assert self.same_bits(a.norm_sq(), w * np.einsum("i,i->", fa, fa))

    @pytest.mark.parametrize("grid", GRIDS, ids=["lane-2^12", "grid-16^3"])
    @pytest.mark.parametrize("system", SYSTEMS, ids=["dirac", "weyl"])
    def test_probability_matches_the_einsum_oracle_bit_for_bit(self, grid, system):
        masks = fd.RegionMask.half_space(grid, 0.3), fd.RegionMask.ball(grid, (0.0,) * grid.dim, 1.5), fd.RegionMask.full(grid)
        for seed in (3, 4, 5):
            psi = random_field(grid, system, seed)
            f = psi.values.view(float).reshape(system.components, -1)
            s = np.einsum("kj,kj->j", f, f)  # re^2 and im^2 summed over the components
            dens = s[0::2] + s[1::2]
            for mask in masks:
                want = grid.cell_measure("position") * dens[mask.sites.ravel()].sum()
                assert self.same_bits(psi.probability(mask), want), (seed, mask.box())


class TestLayout:
    """Values are stored components first, (d, *sites), and every component plane stays contiguous."""

    GRIDS = [fd.Grid(1, 4096, 24.0 / 4096), fd.Grid(3, 16, 8.0 / 16)]

    @pytest.mark.parametrize("grid, system", [(fd.Grid(3, 8, 0.5), al.Dirac(1.0)),
                                              (fd.Grid(1, 64, 0.25), al.Weyl(+1))], ids=["3d", "1d"])
    def test_rejects_sites_first_values(self, grid, system):
        d = system.components
        sites_first = np.zeros((grid.n,) * grid.dim + (d,), dtype=complex)
        want = re.escape(f"expected {(d,) + (grid.n,) * grid.dim}")
        with pytest.raises(ValueError, match=want):
            fd.SpinorField(grid, system, "position", sites_first)

    @pytest.mark.parametrize("grid", GRIDS, ids=["lane", "16^3"])
    @pytest.mark.parametrize("system", [al.Dirac(1.0), al.Weyl(-1)], ids=["dirac", "weyl-"])
    def test_component_planes_stay_contiguous(self, grid, system):
        psi = random_field(grid, system, 2)
        phi = psi.to_momentum()
        h_phi = dyn.h_apply(phi, phi.values)
        outputs = {
            "to_momentum": phi.values,
            "to_position": phi.to_position().values,
            "h_apply": h_phi,
            "energy_projector_apply": dyn.energy_projector_apply(phi, +1),
            "evolution_multiplier_apply": dyn.evolution_multiplier_apply(phi, 0.6, h_phi),
        }
        for name, vals in outputs.items():
            assert vals.shape == (system.components,) + (grid.n,) * grid.dim, name
            assert all(plane.flags.c_contiguous for plane in vals), name

    @pytest.mark.parametrize("grid", GRIDS, ids=["lane", "16^3"])
    def test_site_density_is_the_sum_over_components(self, grid):
        # 2 d = 8 nonnegative squares summed in another order: within 7 eps of the component loop
        vals = random_field(grid, al.Dirac(1.0), 5).values
        want = sum(c.real**2 + c.imag**2 for c in vals)
        assert np.all(np.abs(fd.site_density(vals) - want) <= 7 * np.finfo(float).eps * want)


@pytest.mark.parametrize("grid", [fd.Grid(1, 64, 0.3), fd.Grid(3, 16, 0.3)], ids=["1d", "3d"])
def test_grid_tables_are_one_read_only_set_per_grid(grid):
    # each table is one object on repeated calls, bit-equal to the formula that built it per call before
    p = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    mesh = (p,) if grid.dim == 1 else np.meshgrid(p, p, p, indexing="ij", sparse=True)
    assert grid.axis() is grid.axis()
    assert np.array_equal(grid.axis(), -grid.n * grid.dx / 2.0 + grid.dx * np.arange(grid.n))
    assert grid.paxis() is grid.paxis() and np.array_equal(grid.paxis(), p)
    assert grid.momentum_mesh() is grid.momentum_mesh()
    assert all(np.array_equal(got, want) for got, want in zip(grid.momentum_mesh(), mesh, strict=True))
    # eps at m = 0 is |p| bit for bit: adding 0.0 to a sum of squares is exact
    assert grid.energy(0.0) is grid.energy(0.0)
    assert np.array_equal(grid.energy(0.0), np.sqrt(sum(pk**2 for pk in mesh)))
    assert np.array_equal(grid.energy(1.5), np.sqrt(sum(pk * pk for pk in mesh) + 1.5**2))
    factors = grid._tables()["factors"]
    tables = [grid.axis(), grid.paxis(), *grid.momentum_mesh(), grid.energy(0.0), factors[-1], factors[+1]]
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0.0
    # an equal grid reads the same tables: the cache is keyed by value
    twin = fd.Grid(grid.dim, grid.n, grid.dx)
    assert twin.axis() is grid.axis() and twin.paxis() is grid.paxis()
    # and it keeps one grid's tables only, so no 2^15-point table outlives the op that read it
    fd.Grid(1, 2**15, 0.25).axis()
    assert fd.Grid._tables.cache_info().currsize == 1


def old_support_bounds(field, ax, mass_tol):
    """support_bounds along axis ax as it was computed per axis: its own site-density pass."""
    g = field.grid
    dens = fd.site_density(field.values)
    if g.dim == 3:
        dens = dens.sum(axis=tuple(k for k in range(3) if k != ax))
    total = float(dens.sum())
    cum_l = np.cumsum(dens) / total
    cum_r = np.cumsum(dens[::-1]) / total
    i0 = int(np.searchsorted(cum_l, mass_tol / 2.0, side="right"))
    i1 = g.n - 1 - int(np.searchsorted(cum_r, mass_tol / 2.0, side="right"))
    x = g.axis()
    return float(x[min(i0, g.n - 1)]), float(x[max(min(i1, g.n - 1), 0)])


@pytest.mark.parametrize("grid, center", [(fd.Grid(1, 512, 12.0 / 512), 0.4),
                                          (fd.Grid(3, 32, 0.3), (0.4, -0.3, 0.7))],
                         ids=["1d", "32^3"])
def test_support_box_is_the_per_axis_support_bounds_bit_for_bit(grid, center):
    bump = fd.make_bump(grid, center, 2.0, [1, 0.3, 1j, 0], al.Dirac(1.0))
    # a rough profile, so that every axis reduction sums unequal terms
    psi = fd.SpinorField(grid, bump.system, "position", bump.values * random_field(grid, bump.system, 4).values)
    for tol in (1e-16, fd.EPS_LEAK, 1e-3):
        box = psi.support_box(tol)
        assert box == [old_support_bounds(psi, ax, tol) for ax in range(grid.dim)]
        assert box[-1] == psi.support_bounds(mass_tol=tol)
    with pytest.raises(ValueError, match="support is a position-space notion"):
        psi.to_momentum().support_box(fd.EPS_LEAK)


@pytest.mark.parametrize("dx", [-0.1, 0.0, np.nan, np.inf])
def test_grid_rejects_bad_spacing(dx):
    with pytest.raises(ValueError):
        fd.Grid(1, 64, dx)


class TestMasks:
    def test_full_grid_probability_one(self):
        grid = fd.Grid(1, 256, 10.0 / 256)
        psi = random_field(grid, al.Dirac(1.0), 3)
        assert abs(psi.probability(fd.RegionMask.full(grid)) - 1.0) <= 1e-14

    def test_complement_sums_to_one(self):
        grid = fd.Grid(1, 256, 10.0 / 256)
        psi = random_field(grid, al.Dirac(1.0), 4)
        m = fd.RegionMask.half_space(grid, 0.37)
        assert abs(psi.probability(m) + psi.probability(~m) - 1.0) <= 1e-14

    def test_disjoint_supports(self):
        grid = fd.Grid(1, 512, 16.0 / 512)
        psi = fd.make_bump(grid, 0.5, 0.5, [1, 0, 0, 0], al.Dirac(1.0))
        assert psi.probability(fd.RegionMask.half_space(grid, -0.5)) == 0.0

    def test_additivity_and_monotonicity(self):
        grid = fd.Grid(1, 256, 10.0 / 256)
        psi = random_field(grid, al.Dirac(1.0), 5)
        a = fd.RegionMask.strip(grid, -4.0, -1.0)
        b = fd.RegionMask.strip(grid, 1.0, 4.0)
        both = psi.probability(a | b)
        assert abs(both - psi.probability(a) - psi.probability(b)) <= 1e-14
        wider = fd.RegionMask.strip(grid, -4.5, -0.5)
        assert psi.probability(wider) >= psi.probability(a)

    def test_mask_idempotent(self):
        grid = fd.Grid(1, 128, 4.0 / 128)
        psi = random_field(grid, al.Weyl(-1), 6)
        m = fd.RegionMask.ball(grid, 0.3, 1.0)
        once = psi.apply_mask(m)
        assert (once.apply_mask(m) - once).norm() == 0.0

    @pytest.mark.parametrize("grid", [fd.Grid(1, 128, 4.0 / 128), fd.Grid(3, 8, 0.5)], ids=["1d", "8^3"])
    def test_mask_and_normalize_in_place_bit_for_bit(self, grid):
        # out= writes the same bits as a new array, and may be the field's own values
        psi = random_field(grid, al.Dirac(1.0), 9) * 3.0
        m = fd.RegionMask.half_space(grid, 0.3)
        want = psi.apply_mask(m).normalized().values
        vals = psi.values.copy()
        got = dataclasses.replace(psi, values=vals).apply_mask(m, out=vals).normalized(out=vals)
        assert got.values is vals and np.array_equal(vals, want)
        assert vals.tobytes() == want.tobytes()  # signed zeros too

    def test_halfspace_snap_exactness(self):
        grid = fd.Grid(1, 128, 4.0 / 128)
        # an edge between cells: membership must be unambiguous
        m1 = fd.RegionMask.half_space(grid, 0.0)
        m2 = fd.RegionMask.half_space(grid, grid.dx / 4)
        assert np.array_equal(m1.sites, m2.sites)

    @pytest.mark.parametrize(
        "other", [fd.Grid(1, 16, 0.5), fd.Grid(3, 16, 0.6)], ids=["1d_same_n", "other_dx"],
    )
    def test_mask_from_another_grid_raises(self, other):
        # a 1D mask broadcasts over the last axis, and an equal-shape mask fits every site: both were taken
        grid = fd.Grid(3, 16, 0.5)
        psi = random_field(grid, al.Dirac(1.0), 8)
        mine, foreign = fd.RegionMask.half_space(grid, 0.3), fd.RegionMask.half_space(other, 0.3)
        to_position = psi.to_momentum().to_position
        for use in (psi.apply_mask, psi.probability, mine.__and__, mine.__or__,
                    lambda m: psi.to_momentum(mask=m), lambda m: to_position(mask=m)):
            with pytest.raises(ValueError, match="mask built on"):
                use(foreign)
        # an equal grid is the same grid: the check compares values
        twin = fd.RegionMask.half_space(fd.Grid(3, 16, 0.5), 0.3)
        assert psi.probability(twin) == psi.probability(mine) and np.array_equal((mine & twin).sites, mine.sites)


class TestBump:
    def test_norm_and_support(self):
        grid = fd.Grid(1, 1024, 16.0 / 1024)
        psi = fd.make_bump(grid, 0.3, 1.1, [1, 2j, 0, 0], al.Dirac(1.0))
        assert abs(psi.norm() - 1.0) <= 1e-13
        x = grid.axis()
        nonzero = np.nonzero(np.abs(psi.values[0]) > 0.0)[0]
        assert abs(x[nonzero[0]] - (0.3 - 1.1)) <= grid.dx
        assert abs(x[nonzero[-1]] - (0.3 + 1.1)) <= grid.dx
        outside = (x < 0.3 - 1.1) | (x > 0.3 + 1.1)
        assert np.all(psi.values[:, outside] == 0.0)

    def test_two_disjoint_bumps_orthogonal(self):
        grid = fd.Grid(1, 1024, 16.0 / 1024)
        a = fd.make_bump(grid, -3.0, 1.0, [1, 0, 0, 0], al.Dirac(1.0))
        b = fd.make_bump(grid, 3.0, 1.0, [1, 0, 0, 0], al.Dirac(1.0))
        assert abs(a.inner(b)) <= 1e-14

    def test_guard(self):
        grid = fd.Grid(1, 256, 8.0 / 256)
        with pytest.raises(GuardViolation, match=re.escape("support [-1.0, 1.0] + guard 3.5 leaves axis 0")):
            fd.make_bump(grid, 0.0, 1.0, [1, 0], al.Weyl(+1), guard=3.5)


class TestCenter:
    """A ball or bump centre has one entry per axis; any other length raises instead of broadcasting."""

    @pytest.mark.parametrize("dim, center", [(3, 0.0), (3, (0.0, 0.0)), (1, (0.0, 1.0)), (1, (0.0, 0.0, 0.0)),
                                             (3, (0.0, 0.0, 0.0, 0.0))],
                             ids=["3d-scalar", "3d-pair", "1d-pair", "1d-triple", "3d-quadruple"])
    @pytest.mark.parametrize("build", [
        lambda grid, c: fd.RegionMask.ball(grid, c, 1.0),
        lambda grid, c: fd.make_bump(grid, c, 1.0, [1, 0], al.Weyl(+1)),
    ], ids=["ball", "bump"])
    def test_wrong_length_raises(self, dim, center, build):
        # unchecked, a scalar on a 3D grid builds a (16, 1, 1) ball mask (5 sites, a 209-site slab in apply_mask)
        # or an IndexError in make_bump; a pair builds a cylinder in 3D, and extra entries are dropped
        with pytest.raises(ValueError, match=r"^center must have one entry per axis"):
            build(fd.Grid(dim, 16, 0.5), center)

    @pytest.mark.parametrize("center", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)],
                             ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("build", [
        lambda grid, c: fd.RegionMask.ball(grid, c, 1.0),
        lambda grid, c: fd.make_bump(grid, c, 1.0, [1, 0], al.Weyl(+1)),
    ], ids=["ball", "bump"])
    def test_non_finite_center_raises(self, center, build):
        # unchecked, a NaN centre gives an empty ball, and a bump that fails late, as the zero field
        with pytest.raises(ValueError, match=r"^center \[.*\] must be finite$"):
            build(fd.Grid(3, 16, 0.5), center)

    @pytest.mark.parametrize("size", [np.nan, np.inf, -1.0, 0.0], ids=["nan", "inf", "negative", "zero"])
    def test_ball_radius_must_be_finite_and_positive(self, size):
        # unchecked: NaN gives an empty ball, -1 the 33-site ball of radius 1, inf the whole grid
        with pytest.raises(ValueError, match=r"^radius = .* must be finite and > 0$"):
            fd.RegionMask.ball(fd.Grid(3, 16, 0.5), (0.0, 0.0, 0.0), size)

    @pytest.mark.parametrize("size", [np.nan, np.inf, -1.0, 0.0], ids=["nan", "inf", "negative", "zero"])
    def test_bump_width_must_be_finite_and_positive(self, size):
        with pytest.raises(ValueError, match=r"^width = .* must be finite and > 0$"):
            fd.make_bump(fd.Grid(1, 256, 0.1), 0.0, size, [1, 0], al.Weyl(+1))

    @pytest.mark.parametrize("spinor", [[0, 0], [np.nan, 0], [1, np.inf]], ids=["zero", "nan", "inf"])
    def test_bump_spinor_must_be_finite_and_nonzero(self, spinor):
        # unchecked, each normalized the spinor into NaNs (a RuntimeWarning for the zero spinor) and built a NaN field
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^spinor \[.*\] must be finite and nonzero$"):
                fd.make_bump(fd.Grid(1, 256, 0.1), 0.0, 1.0, spinor, al.Weyl(+1))

    @pytest.mark.parametrize("guard", [np.nan, -5.0, np.inf], ids=["nan", "negative", "inf"])
    def test_bump_guard_must_be_finite_and_nonnegative(self, guard):
        # unchecked, a NaN guard passed the support check and a negative one loosened it
        with pytest.raises(ValueError, match=r"^guard = .* must be finite and >= 0$"):
            fd.make_bump(fd.Grid(1, 256, 0.1), 0.0, 1.0, [1, 0], al.Weyl(+1), guard=guard)

    def test_right_length_ball(self):
        grid = fd.Grid(3, 16, 0.5)
        # the sites i^2 + j^2 + k^2 <= 4 in cells of 0.5: 1 + 6 + 12 + 8 + 6
        assert np.count_nonzero(fd.RegionMask.ball(grid, (0.0, 0.0, 0.0), 1.0).sites) == 33
        assert np.array_equal(fd.RegionMask.ball(fd.Grid(1, 16, 0.5), 0.0, 1.0).sites,
                              fd.RegionMask.ball(fd.Grid(1, 16, 0.5), (0.0,), 1.0).sites)


class TestSinCosSums:
    """sin_cos_sums against the dense sums, on the shapes of the radial transforms."""

    @pytest.mark.parametrize("k_max, m, x0, x_max, kind", [
        (2.0, 4097, 0.0, 650.0, "random"), (2.0, 4097, 0.0, 650.0, "smooth"),
        (10.0, 8193, 0.0, 140.0, "random"), (10.0, 8193, 0.37, 140.0, "smooth"),
    ])
    def test_matches_dense_sums(self, k_max, m, x0, x_max, kind):
        k = np.linspace(0.0, k_max, 4097)
        x = np.linspace(x0, x_max, m)
        r = np.random.default_rng(m)
        if kind == "random":
            c = r.normal(size=(k.size, 2)) + 1j * r.normal(size=(k.size, 2))
        else:
            env = np.exp(-(((k - k_max / 3) / (k_max / 8)) ** 2))
            c = np.stack([env, 1j * env * np.cos(3.0 * k)], axis=1)
        sines, cosines = fd.sin_cos_sums(k, x, c, c)
        # the sine cancels between the sources at +-delta k when k x is small:
        # a theta of -delta k rounded to ulp(2 pi) reads ~3e-13 here
        for got, kern in ((sines, np.sin), (cosines, np.cos)):
            want = kern(np.outer(x, k)) @ c
            assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))
        assert fd.sin_cos_sums(k, x, c)[1].shape == (m, 0)

    @pytest.mark.parametrize("m, x_max", [(4097, 650.0), (1025, 140.0)])
    def test_pol_shaped_strengths(self, m, x_max):
        # a shell state: 75 % of the k rows zero, and an all-zero column (a spinor e_1)
        k = np.linspace(0.0, 8.0, 4097)
        x = np.linspace(0.0, x_max, m)
        r = np.random.default_rng(m)
        c = r.normal(size=(k.size, 3)) + 1j * r.normal(size=(k.size, 3))
        c[(k < 3.0) | (k >= 5.0)] = 0.0
        c[:, 1] = 0.0
        sines, cosines = fd.sin_cos_sums(k, x, c, c[:, :2])
        for got, kern, strengths in ((sines, np.sin, c), (cosines, np.cos, c[:, :2])):
            want = kern(np.outer(x, k)) @ strengths
            assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))
        # the dead column is neither spread nor transformed: exact zeros
        assert np.all(sines[:, 1] == 0.0) and np.all(cosines[:, 1] == 0.0)
        assert np.all(sines[:, [0, 2]] != 0.0)


def long_double_sums(theta, c, m):
    """Oracle: sum_k c_k e^{i j theta_k}, the phases j theta_k and the sums in long double."""
    th = theta.astype(np.longdouble)
    cr, ci = c.real.astype(np.longdouble), c.imag.astype(np.longdouble)
    out = np.empty((m, c.shape[1]), dtype=complex)
    for start in range(0, m, 256):
        phase = np.outer(np.arange(start, min(m, start + 256), dtype=np.longdouble), th)
        cos, sin = np.cos(phase), np.sin(phase)
        out[start : start + phase.shape[0]] = (cos @ cr - sin @ ci) + 1j * (cos @ ci + sin @ cr)
    return out


def bound_thetas(kind, m, r, count=400):
    mr = fd._fine_size(m)
    cell = 2.0 * np.pi / mr
    if kind == "periods":
        return r.uniform(-3.0 * np.pi, 9.0 * np.pi, count)
    if kind == "one_cell":
        return r.uniform(-np.pi, np.pi) + r.uniform(0.0, cell, count)
    if kind == "nodes_and_half_cells":
        nodes = r.integers(-mr // 2, mr // 2, count) * cell
        return nodes + 0.5 * cell * (np.arange(count) % 2)
    if kind == "plus_minus_pi":
        return np.pi * np.where(np.arange(count) % 2, 1.0, -1.0)
    k = np.linspace(0.0, 2.0, count // 2)  # the sources of sin_cos_sums at +-delta k
    return np.concatenate([650.0 / m * k, -650.0 / m * k])


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="the oracle needs an extended long double")
class TestNufftBound:
    """|nufft1 - direct| <= NUFFT_ERR sum_k |c_k| per column, against a long-double direct sum.

    Column 0 holds equal strengths: at j = 0 (a band edge) the errors of sources that share
    an offset within their fine cell add up instead of averaging out.  m = 1638 sits at the
    smallest oversampling M_r / m = 2.5, where the kernel's error peaks.
    """

    @pytest.mark.parametrize("m", [1, 2, 59, 589, 1179, 1638, 4097])
    @pytest.mark.parametrize("kind", ["periods", "one_cell", "nodes_and_half_cells", "plus_minus_pi", "pm_delta_k"])
    def test_error_within_bound(self, kind, m):
        r = np.random.default_rng(m)
        theta = bound_thetas(kind, m, r)
        c = r.normal(size=(theta.size, 12)) + 1j * r.normal(size=(theta.size, 12))
        c[:, 0] = 1.0
        want = long_double_sums(theta, c, m)
        for d in (1, 2, 12):
            err = np.abs(fd.nufft1(theta, c[:, :d], m) - want[:, :d]).max(axis=0)
            ratio = err / np.abs(c[:, :d]).sum(axis=0)
            assert ratio.max() <= fd.NUFFT_ERR, f"{ratio.max():.3g} of sum |c_k| at d = {d}"

    @pytest.mark.parametrize("m", [59, 1638, 4097])
    def test_zero_rows_add_exact_zeros(self, m):
        # sin_cos_sums drops zero-strength sources: they must change no bit of the sums
        r = np.random.default_rng(m + 7)
        theta = bound_thetas("pm_delta_k", m, r)
        c = r.normal(size=(theta.size, 3)) + 1j * r.normal(size=(theta.size, 3))
        live = r.random(theta.size) < 0.25
        c[~live] = 0.0
        got = fd.nufft1(theta, c, m)
        ratio = np.abs(got - long_double_sums(theta, c, m)).max(axis=0) / np.abs(c).sum(axis=0)
        assert ratio.max() <= fd.NUFFT_ERR
        assert np.array_equal(got, fd.nufft1(theta[live], c[live], m))


def bincount_spread(base, u, c, mr):
    """Oracle: nufft1's fine grid from one bincount per real and imaginary part of each component,
    over the flattened (w, K) kernel taps times sources."""
    w = fd._ES_WIDTH
    weights = np.exp(np.sqrt(0.25 * w * w - (np.arange(w)[:, None] - u) ** 2) * (2.0 * fd._ES_BETA / w))
    cells = ((base + np.arange(w)[:, None]) & (mr - 1)).ravel()
    fine = np.empty((mr, c.shape[0]), dtype=complex)
    for comp, strength in enumerate(c):
        fine[:, comp].real = np.bincount(cells, weights=(weights * strength.real).ravel(), minlength=mr)
        fine[:, comp].imag = np.bincount(cells, weights=(weights * strength.imag).ravel(), minlength=mr)
    return fine


class TestSpreading:
    """nufft1's per-tap spreading adds in the bincount's order: the same bits on the callers' shapes."""

    @staticmethod
    def assert_bits_of_bincount(monkeypatch, call):
        got = call()
        with monkeypatch.context() as m:
            m.setattr(fd, "_spread", bincount_spread)
            want = call()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rho", [0.5, 3.0])
    def test_boost(self, rho, monkeypatch):
        grid = fd.Grid(1, 4096, 14.0 / 4096)
        psi = fd.make_bump(grid, 0.0, 0.7, [1, 0.3, 1j, 0], al.Dirac(1.0), guard=3.3)
        x = grid.axis()[(grid.axis() > -0.3) & (grid.axis() < 0.3)] / np.cosh(rho)
        self.assert_bits_of_bincount(monkeypatch, lambda: (dyn.boost_values(psi, rho, x),))

    @pytest.mark.parametrize("k_max, n_k, x_max, n_x, d, live", [
        (10.0, 4097, 22.0, 4097, 2, slice(None)),  # radial: every k and column live
        (140.0, 1025, 10.0, 4097, 3, slice(8, 16)),  # pol: a shell of k rows
    ], ids=["radial", "pol"])
    def test_sin_cos_sums(self, k_max, n_k, x_max, n_x, d, live, monkeypatch):
        k = np.linspace(0.0, k_max, n_k)
        r = np.random.default_rng(n_k)
        c = np.zeros((n_k, d), dtype=complex)
        c[live] = r.normal(size=c[live].shape) + 1j * r.normal(size=c[live].shape)
        x = np.linspace(0.0, x_max, n_x)
        self.assert_bits_of_bincount(monkeypatch, lambda: fd.sin_cos_sums(k, x, c, k[:, None] * c))


def test_translate_exact_roll():
    grid = fd.Grid(1, 256, 8.0 / 256)
    psi = fd.make_bump(grid, -1.0, 0.8, [1, 0], al.Weyl(+1))
    shifted = fd.translate(psi, 10 * grid.dx)
    assert np.array_equal(shifted.values, np.roll(psi.values, 10, axis=1))
