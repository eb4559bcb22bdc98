"""Grid-sampled spinor wave functions with Fourier duality and localization masks.

A field lives on a periodic grid (discrete torus) in one or three dimensions,
holds d = 2 or 4 complex components per site, and is tagged with its
representation ('position' or 'momentum') and its system (Dirac(m) or Weyl(chi)).
Values are stored components first, shape (d, *sites): each component is a
C-contiguous scalar field, and a site-shaped table (a Fourier factor, eps(p),
a mask) broadcasts over the leading component axis as it stands.

Every grid is centred: each axis holds the cells -n dx / 2 + j dx.  Every
table of a grid is built here, once, and handed out read-only from a bounded
cache: the axis, momenta, momentum mesh and site-shaped Fourier factors of
both signs of one grid at a time (``Grid._tables``; in 3D a factor is the
product of the axis factors, multiplied out once rather than per transform),
and eps(p) of two (grid, mass) pairs (``Grid.energy``; |p| is eps at m = 0).

A transform given a mask applies it in the same call (before the forward FFT,
after the inverse) and skips the FFT lines that the mask's bounding box
(``RegionMask.box``) decides: lines that hold only zeros, and lines that reach
no site in the box (``_fft_sites``).  No partly transformed value leaves the
call, and every line that runs is transformed as in fftn: the values are
those of the unpruned transform and apply_mask bit for bit, but for the sign of
a zero (a skipped line gives +0 where the FFT of a masked line may give -0).

Measure conventions: position cell weight dx^dim, momentum cell weight dp^dim
with dp = 2 pi / (N dx).  The Fourier pair

    phi(p) = (2 pi)^{-dim/2} integral e^{-i x p} psi(x) dx

is realized by the FFT so that Parseval holds exactly on the grid.

Half-space edges snap to half-integer grid positions (cell boundaries) and
membership is decided at cell centers, so complement identities are exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import GuardViolation

#: fraction of total probability allowed to leak outside causal bounds for
#: smooth compact states with >= LEAK_SAMPLES samples across the bump, 2 width / dx
#: (measured: at most 7.6e-9 from 84 samples up for Dirac and both Weyl chiralities;
#: below, the leak oscillates with the sampling and reaches 1.1e-8 at 82.1 samples)
EPS_LEAK = 1e-8
#: samples across a bump, 2 width / dx, from which EPS_LEAK holds
LEAK_SAMPLES = 84


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid, centred on 0; the same n cells along every axis."""

    dim: int
    n: int
    dx: float

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ValueError("dim must be 1 or 3")
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 4")
        if not 0.0 < self.dx < np.inf:
            raise ValueError(f"dx must be finite and > 0, got {self.dx!r}")

    @property
    def origin(self) -> float:
        """The first cell center of every axis, -n dx / 2."""
        return -self.n * self.dx / 2.0

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / self.length

    def axis(self) -> np.ndarray:
        """Cell centers origin + j dx of every axis, read-only."""
        return self._tables()["axis"]

    def paxis(self) -> np.ndarray:
        """Momenta 2 pi fftfreq(n, dx), in the FFT's order, read-only."""
        return self._tables()["p"]

    def cell_measure(self, rep: str) -> float:
        w = self.dx if rep == "position" else self.dp
        return w**self.dim

    def snap_boundary(self, alpha: float) -> float:
        """Snap alpha to the nearest cell boundary origin + (j + 1/2) dx."""
        j = round((alpha - self.origin) / self.dx - 0.5)
        return self.origin + (j + 0.5) * self.dx

    def position_mesh(self):
        if self.dim == 1:
            return (self.axis(),)
        return np.meshgrid(*(self.axis(),) * 3, indexing="ij", sparse=True)

    def momentum_mesh(self) -> tuple:
        """The momentum mesh, one paxis per axis (sparse in 3D), read-only."""
        return self._tables()["mesh"]

    @functools.lru_cache(maxsize=1)  # an op reads the tables of one grid; none is kept past the next grid
    def _tables(self) -> dict:
        """Every table of the grid alone, read-only.

        "axis" and "p" serve axis and paxis, "mesh" momentum_mesh, and "factors"[sign]
        the site-shaped Fourier factor that to_momentum (sign -1) and to_position
        (sign +1) multiply by: the axis factor e^{sign i p origin} w, in 3D multiplied
        out over the sites.  w is the per-axis scale of the transform pair: dx / sqrt(2 pi)
        for the forward FFT and n dp / sqrt(2 pi) for the inverse.
        """
        p = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        axis = self.origin + self.dx * np.arange(self.n)
        mesh = (p,) if self.dim == 1 else tuple(np.meshgrid(p, p, p, indexing="ij", sparse=True))
        factors = {}
        for sign, w in ((-1, self.dx), (+1, self.n * self.dp)):
            f = w / np.sqrt(2.0 * np.pi) * np.exp(sign * 1j * p * self.origin)
            factors[sign] = f if self.dim == 1 else f[:, None, None] * f[:, None] * f
        read_only(p, axis, *mesh, *factors.values())
        return {"axis": axis, "p": p, "mesh": mesh, "factors": factors}

    @functools.lru_cache(maxsize=2)  # the system's mass and m = 0 (|p|): a cascade reads both
    def energy(self, m: float) -> np.ndarray:
        """eps(p) = sqrt(|p|^2 + m^2) on the momentum mesh, read-only; |p| at m = 0, where adding 0.0 is exact."""
        return read_only(np.sqrt(sum(pk * pk for pk in self.momentum_mesh()) + m * m))[0]


def read_only(*arrays) -> tuple:
    """The arrays, marked read-only: a table that a cache hands to every caller must not be written."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass
class RegionMask:
    """Boolean site mask with set algebra; built from half-spaces, strips, balls.  It acts on its own grid only."""

    grid: Grid
    sites: np.ndarray

    def __and__(self, other: "RegionMask") -> "RegionMask":
        return RegionMask(self.grid, self.sites & other.sites_on(self.grid))

    def __or__(self, other: "RegionMask") -> "RegionMask":
        return RegionMask(self.grid, self.sites | other.sites_on(self.grid))

    def sites_on(self, grid: Grid) -> np.ndarray:
        """The sites, for use on grid; ValueError unless it is the mask's own (even if the shapes would broadcast)."""
        if grid != self.grid:
            raise ValueError(f"mask built on {self.grid} used on {grid}")
        return self.sites

    def __invert__(self) -> "RegionMask":
        return RegionMask(self.grid, ~self.sites)

    def box(self) -> tuple:
        """The smallest box holding every site, one slice per axis; empty slices for an empty mask."""
        s = self.sites
        if s.ndim == 1:
            lines = (s,)
        else:
            plane = s.any(axis=0)  # one pass over the sites serves the last two axes
            lines = (s.any(axis=(1, 2)), plane.any(axis=1), plane.any(axis=0))
        box = []
        for line in lines:
            hit = np.flatnonzero(line)
            box.append(slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0))
        return tuple(box)

    @staticmethod
    def full(grid: Grid) -> "RegionMask":
        return RegionMask(grid, np.ones((grid.n,) * grid.dim, dtype=bool))

    @staticmethod
    def half_space(grid: Grid, alpha: float) -> "RegionMask":
        """{x : x <= alpha} along the last axis (e3 in 3D); its complement is {x > alpha}."""
        return RegionMask(grid, _broadcast_line(grid, grid.axis() <= grid.snap_boundary(alpha)))

    @staticmethod
    def strip(grid: Grid, lo: float, hi: float) -> "RegionMask":
        """{x : lo <= x <= hi} along the last axis (e3 in 3D)."""
        x = grid.axis()
        line = (x >= grid.snap_boundary(lo)) & (x <= grid.snap_boundary(hi))
        return RegionMask(grid, _broadcast_line(grid, line))

    @staticmethod
    def ball(grid: Grid, center, radius: float) -> "RegionMask":
        center = _center(grid, center)
        _require_positive("radius", radius)
        mesh = grid.position_mesh()
        r2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
        return RegionMask(grid, r2 <= radius**2)


def _center(grid: Grid, center) -> np.ndarray:
    """center as one float per axis of the grid (a scalar in 1D); ValueError for any other length."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (grid.dim,):
        raise ValueError(f"center must have one entry per axis, got shape {center.shape} on a {grid.dim}D grid")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"center {center} must be finite")
    return center


def _require_positive(name: str, value: float) -> None:
    """ValueError naming the argument unless value is finite and > 0."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} = {value} must be finite and > 0")


def _broadcast_line(grid: Grid, line: np.ndarray) -> np.ndarray:
    """A mask of the last axis, repeated over the others."""
    return np.broadcast_to(line, (grid.n,) * grid.dim).copy()


@dataclass
class SpinorField:
    """Immutable-by-convention spinor field; arithmetic returns new instances."""

    grid: Grid
    system: object  # Dirac or Weyl
    rep: str
    values: np.ndarray  # shape (d, *sites): values[i] is component i, a C-contiguous scalar field

    def __post_init__(self):
        d = self.system.components
        want = (d,) + (self.grid.n,) * self.grid.dim
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape}, expected {want} (components, *sites)")
        if self.rep not in ("position", "momentum"):
            raise ValueError(f"bad representation {self.rep!r}")

    # --- linear structure -------------------------------------------------
    def copy(self) -> "SpinorField":
        return replace(self, values=self.values.copy())

    def __add__(self, other: "SpinorField") -> "SpinorField":
        self._compatible(other)
        return replace(self, values=self.values + other.values)

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        self._compatible(other)
        return replace(self, values=self.values - other.values)

    def __mul__(self, c) -> "SpinorField":
        return replace(self, values=self.values * c)

    __rmul__ = __mul__

    def _compatible(self, other: "SpinorField"):
        if self.grid != other.grid or self.rep != other.rep or self.system != other.system:
            raise ValueError("fields live on different grids/representations/systems")

    # --- metric -----------------------------------------------------------
    def inner(self, other: "SpinorField") -> complex:
        self._compatible(other)
        w = self.grid.cell_measure(self.rep)
        return complex(w * np.vdot(self.values, other.values))

    def norm_sq(self) -> float:
        w = self.grid.cell_measure(self.rep)
        return float(w * np.vdot(self.values, self.values).real)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def normalized(self, out: np.ndarray | None = None) -> "SpinorField":
        """This field over its norm, written into out (which may be self.values) or into a new array."""
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero field")
        return replace(self, values=np.multiply(self.values, 1.0 / n, out=out))

    # --- Fourier duality ----------------------------------------------------
    def to_momentum(self, out: np.ndarray | None = None, mask: RegionMask | None = None) -> "SpinorField":
        """Momentum field of this field, or of its restriction to mask, written into out (which may be self.values) or into one new array.

        With a mask the masked values are zero outside mask.box(), so the FFT
        skips the lines that hold only zeros (``_fft_sites``); every nonzero
        value has the bits of ``apply_mask(mask).to_momentum()``.
        """
        if self.rep != "position":
            raise ValueError("to_momentum needs a position-representation field")
        g = self.grid
        vals = np.empty(self.values.shape, dtype=complex) if out is None else out
        src, box = self.values, (slice(None),) * g.dim
        if mask is not None:
            sites, box = self._sites(mask), mask.box()
            cols = (slice(None),) + box[:-1]  # the whole lines along the last axis through the box
            _zero_outside(vals, box[:-1])
            np.multiply(self.values[cols], sites[box[:-1]], out=vals[cols])
            src = vals
        _fft_sites(src, vals, box, forward=True)
        vals *= g._tables()["factors"][-1]
        return replace(self, rep="momentum", values=vals)

    def to_position(self, out: np.ndarray | None = None, mask: RegionMask | None = None) -> "SpinorField":
        """Position field, or its restriction to mask, written into out (which may be self.values) or into one new array.

        With a mask only the sites in mask.box() are transformed to the end
        (``_fft_sites``) and every site outside it is set to zero; every nonzero
        value has the bits of ``to_position().apply_mask(mask)``.
        """
        if self.rep != "momentum":
            raise ValueError("to_position needs a momentum-representation field")
        g = self.grid
        box, sites = ((slice(None),) * g.dim, None) if mask is None else (mask.box(), mask.sites_on(g))
        vals = np.multiply(self.values, g._tables()["factors"][+1], out=out)
        _fft_sites(vals, vals, box, forward=False)
        if mask is not None:
            inside = (slice(None),) + box
            np.multiply(vals[inside], sites[box], out=vals[inside])
            _zero_outside(vals, box)
        return replace(self, rep="position", values=vals)

    # --- localization -------------------------------------------------------
    def apply_mask(self, mask: RegionMask, out: np.ndarray | None = None) -> "SpinorField":
        """The restriction to mask, written into out (which may be self.values) or into a new array."""
        return replace(self, values=np.multiply(self.values, self._sites(mask), out=out))

    def probability(self, mask: RegionMask) -> float:
        """||1_Delta psi||^2 for a normalized field: localization probability."""
        sites = self._sites(mask)
        w = self.grid.cell_measure(self.rep)
        inside = (comp[sites] for comp in self.values)  # one component's cells at a time
        return float(w * sum(np.vdot(c, c).real for c in inside))

    def _sites(self, mask: RegionMask) -> np.ndarray:
        if self.rep != "position":
            raise ValueError("masks act in position representation")
        return mask.sites_on(self.grid)

    # --- support helpers ------------------------------------------------------
    def support_bounds(self, mass_tol: float = 1e-12):
        """Smallest cell-center interval on the last axis (e3 in 3D) outside which the relative mass is <= mass_tol.

        Robust against the FFT roundoff floor, which carries ~1e-28 of the
        total probability but nonzero amplitude everywhere.
        """
        return self.support_box(mass_tol)[-1]

    def support_box(self, mass_tol: float) -> list:
        """support_bounds along every axis, [(lo, hi), ...], from one site-density pass."""
        if self.rep != "position":
            raise ValueError("support is a position-space notion")
        g = self.grid
        dens = site_density(self.values)
        x = g.axis()
        box = []
        for ax in range(g.dim):
            line = dens.sum(axis=tuple(k for k in range(3) if k != ax)) if g.dim == 3 else dens
            total = float(line.sum())
            if total == 0.0:
                raise ValueError("field is identically zero")
            cum_l = np.cumsum(line) / total
            cum_r = np.cumsum(line[::-1]) / total
            i0 = int(np.searchsorted(cum_l, mass_tol / 2.0, side="right"))
            i1 = g.n - 1 - int(np.searchsorted(cum_r, mass_tol / 2.0, side="right"))
            box.append((float(x[min(i0, g.n - 1)]), float(x[max(min(i1, g.n - 1), 0)])))
        return box


def site_density(values: np.ndarray) -> np.ndarray:
    """|psi|^2 at each site of a (d, *sites) array: re^2 + im^2 summed over the components (no abs, no sqrt)."""
    f = np.ascontiguousarray(values, dtype=complex).view(float).reshape(len(values), -1)
    s = np.einsum("kj,kj->j", f, f)  # the squares summed over the components, re and im interleaved
    return (s[0::2] + s[1::2]).reshape(values.shape[1:])


def _fft_sites(vals: np.ndarray, out: np.ndarray, box: tuple, forward: bool) -> None:
    """fft (forward) or ifft along the site axes -1, -2, -3 in fftn's order, into out, on the lines box can reach.

    box holds one slice per site axis.  Forward, vals must be zero outside box,
    and out zero off the lines along the last site axis that cross box: the pass
    along a site axis runs only on the lines inside box on the axes before it
    (the lines skipped hold zeros and stay zeros).  Inverse, only the sites in box are
    read: the pass along a site axis runs only on the lines inside box on the
    axes after it (the lines skipped reach no site in box).  Every line that
    runs is transformed as in fftn, so the sites in box carry fftn's / ifftn's
    bits, and a full box is the whole transform.  The passes after the first
    run in place, so an n-d transform allocates nothing (out= needs numpy >= 2.0).
    """
    transform, dim = (np.fft.fft if forward else np.fft.ifft), len(box)
    every = (slice(None),) * (dim + 1)  # the component axis and the site axes
    for ax in range(dim, 0, -1):  # array axis ax is site axis ax - 1 - dim
        lines = every[:1] + box[: ax - 1] + every[ax:] if forward else every[: ax + 1] + box[ax:]
        transform(vals[lines], axis=ax, out=out[lines])
        vals = out


def _zero_outside(vals: np.ndarray, box: tuple) -> None:
    """Set to zero every value whose leading site indices, one per slice of box, lie outside box."""
    for k, cut in enumerate(box):
        inside = (slice(None),) + box[:k]
        vals[inside + (slice(None, cut.start),)] = 0.0
        vals[inside + (slice(cut.stop, None),)] = 0.0


#: exponential-of-semicircle (ES) kernel phi(z) = exp(beta (sqrt(1 - z^2) - 1)) on
#: |z| <= 1, spanning _ES_WIDTH fine cells, with beta = 2.30 _ES_WIDTH (Barnett, Magland
#: & af Klinteberg, SIAM J. Sci. Comput. 41, 2019)
_ES_WIDTH = 15
_ES_BETA = 2.30 * _ES_WIDTH
#: 1/(2 pi) = _TURN_HI + _TURN_LO to ~1e-24; _TURN_HI has 24 bits, so its product with a
#: 26-bit half of a float64 and a power of two is exact
_TURN_HI = float(np.float32(1.0 / (2.0 * np.pi)))
_TURN_LO = (1.0 / (2.0 * np.pi) - _TURN_HI) - 9.839338337591243e-18
#: bound on |nufft1 - direct sum| per unit sum_k |c_k|, for every theta, m and output row
#: (measured worst case 3.6e-14; see nufft1 and tests/test_field.py::TestNufftBound)
NUFFT_ERR = 5e-14


@functools.cache
def _es_quadrature() -> tuple:
    """Gauss-Legendre nodes z on (0, 1) and weights times e^beta phi(z).

    e^beta Phi(xi) = 2 sum_q w_q e^beta phi(z_q) cos(xi z_q); nufft1 spreads with e^beta phi too.
    """
    x, w = np.polynomial.legendre.leggauss(2 * (2 + 3 * _ES_WIDTH // 2))
    z, w = x[x > 0], w[x > 0]
    return z, w * np.exp(_ES_BETA * np.sqrt(1.0 - z * z))


@functools.lru_cache(maxsize=8)  # the output counts of one radial or pol op
def _es_deconvolution(m: int, mr: int) -> np.ndarray:
    """2 mr / (w Phi(j alpha)) for j = -(m // 2)..m - 1 - m // 2, alpha = pi w / mr; read-only."""
    z, wphi = _es_quadrature()
    j = np.arange(m) - m // 2
    table = (2.0 * mr / _ES_WIDTH) / (2.0 * (np.cos(np.outer(j * (np.pi * _ES_WIDTH / mr), z)) @ wphi))
    return read_only(table)[0]


def _fine_size(m: int) -> int:
    """nufft1's fine-grid size M_r: the least power of two >= 5m/2 and >= 2 _ES_WIDTH."""
    return 1 << int(max((5 * m + 1) // 2, 2 * _ES_WIDTH) - 1).bit_length()


def nufft1(theta: np.ndarray, strengths: np.ndarray, m: int) -> np.ndarray:
    """Type-1 nonuniform DFT f_j = sum_k c_k e^{i j theta_k}, j = 0..m-1.

    theta has shape (K,), strengths (K, d) (a (d, K) field array passes transposed), m >= 1; out (m, d).
    Each source is spread with the ES kernel phi(x / alpha), alpha = w h / 2,
    onto the w = 15 cells it covers of a fine grid of M_r >= 5m/2 points (a
    power of two, cell h = 2 pi / M_r).  One inverse FFT per component gives
    the Fourier coefficients of the smoothed sum, (alpha / 2 pi) Phi(j alpha) f_j
    with Phi(xi) = int_{-1}^{1} phi(z) e^{i xi z} dz, and dividing by them
    deconvolves.  Phi comes from Gauss-Legendre quadrature of phi (24 nodes
    on (0, 1), computed once; one read-only table per (m, M_r) in a bounded
    cache).  The output modes are centered on j_c = m // 2, so |j - j_c| <= m/2.
    The cost is proportional to w K d (spreading) plus d M_r log M_r (the
    FFTs) for every source and column given, zero or not: callers whose
    strengths carry structural zeros pass only their live block, as
    ``sin_cos_sums`` does.

    theta M_r / 2 pi is formed in double-double, as an integer cell plus an
    offset good to ~1e-16 cells, and the centering phase e^{i j_c theta} from
    the same pair.  Reducing theta mod 2 pi, rounding j_c theta or dividing by
    h in float64 would each cost up to ~m pi eps / 2 per unit |c_k| (7e-13 at
    m = 4097) wherever the sources' phases line up.

    Error model: |f_j - direct| <= NUFFT_ERR sum_k |c_k| in every column.  The
    error is the kernel's: largest at the band edges |j - j_c| = m/2 and at
    the smallest oversampling M_r / m.  Against a long-double direct sum, one
    source swept across a cell reads at most 1.3e-13 at M_r / m = 2, 6.5e-14 at
    2.2, 3.6e-14 at 2.5 and 1.4e-14 at 3 to 4; hence M_r >= 5m/2, not 2m.
    Random strengths read ~1e-15 of sum_k |c_k|.
    """
    c = np.asarray(strengths, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    w, jc = _ES_WIDTH, m // 2
    mr = _fine_size(m)
    # theta mr / 2 pi = s1 + s2 with s1 exact: theta split into 26-bit halves (Veltkamp)
    split = theta * 134217729.0
    hi = split - (split - theta)
    s1 = hi * (mr * _TURN_HI)
    s2 = (theta - hi) * (mr * _TURN_HI) + theta * (mr * _TURN_LO)
    base = np.round(s1)
    near = (s1 - base) + s2  # position less the integer base, in cells
    shift = np.ceil(near - 0.5 * w)  # first covered cell, so that w/2 - 1 <= u <= w/2
    u = near - shift
    base = (base + shift).astype(np.intp)
    turn = ((jc * (base & (mr - 1))) & (mr - 1)) + jc * u  # j_c theta mr / 2 pi, mod mr
    phase = np.exp((2j * np.pi / mr) * turn)
    c = np.multiply(c.T, phase, out=np.empty((c.shape[1], c.shape[0]), dtype=complex))
    fine = _spread(base, u, c, mr)
    np.fft.ifft(fine, axis=0, out=fine)
    # deconvolved straight into the output: modes j < j_c sit at the top of the fine grid
    table = _es_deconvolution(m, mr)[:, None]
    out = np.empty((m, c.shape[0]), dtype=complex)
    np.multiply(table[:jc], fine[mr - jc :], out=out[:jc])
    np.multiply(table[jc:], fine[: m - jc], out=out[jc:])
    return out


def _spread(base: np.ndarray, u: np.ndarray, c: np.ndarray, mr: int) -> np.ndarray:
    """The (M_r, d) fine grid of nufft1: source k adds e^beta phi(z) c[:, k] to cell base_k + tap, mod M_r.

    z = 2 (tap - u_k) / w for the w taps (the e^beta goes into the deconvolution).
    One complex ``np.add.at`` per tap and component, over K-sized rows: taps
    outer, sources inner, the order in which a ``bincount`` over the flattened
    (w, K) cells adds, so the sums are bit for bit the same.
    """
    w = _ES_WIDTH
    fine = np.zeros((mr, c.shape[0]), dtype=complex)
    weight, cells, term = np.empty_like(u), np.empty_like(base), np.empty(u.shape, dtype=complex)
    for tap in range(w):
        np.subtract(tap, u, out=weight)
        np.multiply(weight, weight, out=weight)
        np.subtract(0.25 * w * w, weight, out=weight)
        np.sqrt(weight, out=weight)
        weight *= 2.0 * _ES_BETA / w
        np.exp(weight, out=weight)
        np.add(base, tap, out=cells)
        cells &= mr - 1  # mod mr (a power of two)
        for comp, strength in enumerate(c):
            np.add.at(fine[:, comp], cells, np.multiply(strength, weight, out=term))
    return fine


def sin_cos_sums(k: np.ndarray, x: np.ndarray, sine: np.ndarray, cosine: np.ndarray | None = None):
    """(sum_k sine_k sin(k x_j), sum_k cosine_k cos(k x_j)) at evenly spaced x_j = x_0 + j delta.

    One nufft1 call with sources at theta = +-delta k carrying e^{+-i k x_0},
    on the live block of the strengths only: a k whose sine and cosine
    strengths are all zero is dropped before the sources are built, and an
    all-zero column is neither spread nor transformed but comes back as exact
    zeros, so the cost is proportional to live sources x live columns (with
    nothing copied when every row and column is live).  Zero strengths add
    exact zeros, so each sum is within NUFFT_ERR sum_k |strengths| of its
    column either way; no cosine strengths means an empty cosine sum.
    """
    x = np.asarray(x, dtype=float)
    delta = even_step(x)
    d = sine.shape[1]
    if cosine is None:
        cosine = np.empty((sine.shape[0], 0), dtype=complex)
    nonzero = np.hstack([sine != 0, cosine != 0])
    rows, cols = nonzero.any(axis=1), nonzero.any(axis=0)
    if not (rows.all() and cols.all()):
        k = np.asarray(k)[rows]
        sine, cosine = sine[np.ix_(rows, cols[:d])], cosine[np.ix_(rows, cols[d:])]
    kn, ds = sine.shape
    phase = np.exp(1j * k * x[0])[:, None]
    # the four phase * (+-sine, i cosine) blocks, written once into nufft1's source
    # rows; column-major, so that nufft1's per-component pass reads contiguous columns
    strengths = np.empty((ds + cosine.shape[1], 2 * kn), dtype=complex).T
    top, bottom = strengths[:kn], strengths[kn:]
    top[:, :ds] = sine
    np.negative(sine, out=bottom[:, :ds])
    np.multiply(1j, cosine, out=top[:, ds:])
    bottom[:, ds:] = top[:, ds:]
    np.multiply(phase, top, out=top)
    np.multiply(phase.conj(), bottom, out=bottom)
    sums = nufft1(np.concatenate([delta * k, -delta * k]), strengths, x.size) / 2j
    if not cols.all():
        sums, live = np.zeros((x.size, cols.size), dtype=complex), sums
        sums[:, cols] = live
    return sums[:, :d], sums[:, d:]


#: error of the fast Bessel sums, relative to max |out|, above which a row takes the direct sum
_BESSEL_RTOL = 1e-10


def bessel_sums(k: np.ndarray, zero: np.ndarray, one: np.ndarray, x: np.ndarray):
    """(sum_k zero_k k j_0(k x_j), sum_k one_k k^2 j_1(k x_j)) at evenly spaced x_j.

    With j_0(z) = sin z / z and j_1(z) = sin z / z^2 - cos z / z both are
    ``sin_cos_sums`` divided by x or x^2.  The quotients cancel at small x:
    x = 0 and every row where NUFFT_ERR sum |strengths| over x or x^2 may pass
    _BESSEL_RTOL of max |out| take the direct sum (``bessel_rows``).
    """
    k, x = np.asarray(k, dtype=float), np.asarray(x, dtype=float)
    d = zero.shape[1]
    cosine = k[:, None] * one
    sines, cosines = sin_cos_sums(k, x, np.hstack([zero, one]), cosine)
    origin = x == 0.0
    r = np.where(origin, 1.0, x)[:, None]  # the x = 0 rows are replaced below
    out0, out1 = sines[:, :d] / r, sines[:, d:] / r**2 - cosines / r
    a0, b1, a1 = (NUFFT_ERR * np.abs(c).sum() for c in (zero, one, cosine))
    r = np.abs(r[:, 0])
    near = origin | (a0 / r > _BESSEL_RTOL * np.abs(out0[~origin]).max(initial=0.0))
    near |= b1 / r**2 + a1 / r > _BESSEL_RTOL * np.abs(out1[~origin]).max(initial=0.0)
    out0[near], out1[near] = bessel_rows(k, zero, one, x[near])
    return out0, out1


def bessel_rows(k: np.ndarray, zero: np.ndarray, one: np.ndarray, x: np.ndarray):
    """The sums of ``bessel_sums`` at any x, one direct O(len(k)) row per point."""
    live = np.any((zero != 0) | (one != 0), axis=1)  # zero strengths add nothing
    kl = np.asarray(k, dtype=float)[live]
    z = np.outer(x, kl)
    # below |z| = 1e-4, j_0 ~ 1 - z^2/6 (z^4/120 < 1e-18 is under half an ulp of it) and j_1 ~ z/3
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    sin, cos = np.sin(safe), np.cos(safe)
    j0, j1 = sin / safe, sin / safe**2 - cos / safe
    zs = z[small]
    j0[small], j1[small] = 1.0 - zs * zs / 6.0, zs / 3.0
    return j0 @ (kl[:, None] * zero[live]), j1 @ (kl[:, None] ** 2 * one[live])


def even_step(x: np.ndarray) -> float:
    """delta of evenly spaced points x_j = x_0 + j delta (to 1e-12 relative); else ValueError."""
    delta = (x[-1] - x[0]) / max(x.size - 1, 1)
    even = x[0] + delta * np.arange(x.size)
    if np.max(np.abs(x - even)) > 1e-12 * max(float(np.max(np.abs(x))), abs(delta)):
        raise ValueError("outputs must be evenly spaced, x_j = x_0 + j delta")
    return float(delta)


def translate(field: SpinorField, shift: float) -> SpinorField:
    """Spatial translation W(shift * e3) by a whole number of cells (exact roll)."""
    if field.rep != "position":
        raise ValueError("translate acts in position representation")
    g = field.grid
    cells = int(round(shift / g.dx))
    return replace(field, values=np.roll(field.values, cells, axis=-1))


def make_bump(
    grid: Grid,
    center,
    width: float,
    spinor,
    system,
    momentum: float = 0.0,
    guard: float = 0.0,
) -> SpinorField:
    """Normalized C-infinity bump exp(-w^2/(w^2 - r^2)), exactly zero outside r = w.

    `guard` is the planned evolution horizon: the support fattened by guard must
    stay strictly inside the grid, otherwise GuardViolation is raised.
    An optional plane-wave factor e^{i momentum x} (last axis) shifts the band.
    A spinor that is zero or not finite, or a guard that is negative or not
    finite, raises ValueError.
    """
    center = _center(grid, center)
    _require_positive("width", width)
    if not 0.0 <= guard < np.inf:
        raise ValueError(f"guard = {guard} must be finite and >= 0")
    spinor = np.asarray(spinor, dtype=complex)
    norm = np.linalg.norm(spinor)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"spinor {spinor} must be finite and nonzero")
    mesh = grid.position_mesh()
    lo, hi = grid.axis()[0], grid.axis()[-1]
    for k in range(grid.dim):
        if center[k] - width - guard < lo + grid.dx or center[k] + width + guard > hi - grid.dx:
            raise GuardViolation(
                f"support [{center[k]-width}, {center[k]+width}] + guard {guard} leaves axis {k}"
            )
    r2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
    w2 = width * width
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        prof = np.where(r2 < w2, np.exp(-w2 / np.maximum(w2 - r2, 1e-300)), 0.0)
    if momentum:
        prof = prof * np.exp(1j * momentum * mesh[grid.dim - 1])
    spinor = spinor / norm
    vals = prof * spinor.reshape((-1,) + (1,) * grid.dim)  # profile first: with FMA, complex products round by order
    return SpinorField(grid, system, "position", vals).normalized()
