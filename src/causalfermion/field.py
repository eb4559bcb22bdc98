"""Grid-sampled spinor wave functions with Fourier duality and localization masks.

A field lives on a periodic grid (discrete torus) in one or three dimensions,
holds d = 2 or 4 complex components per site, and is tagged with its
representation ('position' or 'momentum') and its system (Dirac(m) or Weyl(chi)).

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

from .errors import (
    BandExceeded,
    NotEvenlySpaced,
    SupportExceedsGuard,
    WrongRepresentation,
)

#: fraction of total probability allowed to leak outside causal bounds for
#: smooth compact states with >= LEAK_SAMPLES samples across the bump, 2 width / dx
#: (measured: at most 7.6e-9 from 84 samples up for Dirac and both Weyl chiralities;
#: below, the leak oscillates with the sampling and reaches 1.1e-8 at 82.1 samples)
EPS_LEAK = 1e-8
#: samples across a bump, 2 width / dx, from which EPS_LEAK holds
LEAK_SAMPLES = 84


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid; same point count along every axis."""

    dim: int
    n: int
    dx: float
    origin: tuple = ()

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ValueError("dim must be 1 or 3")
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 4")
        if not 0.0 < self.dx < np.inf:
            raise ValueError(f"dx must be finite and > 0, got {self.dx!r}")
        if not self.origin:
            # centered grid: cells at origin + j dx, j = 0..n-1
            object.__setattr__(self, "origin", (-self.n * self.dx / 2.0,) * self.dim)
        elif len(self.origin) != self.dim:
            raise ValueError("origin must have one entry per axis")
        # a tuple keeps the grid hashable: the spectral tables are cached per grid
        object.__setattr__(self, "origin", tuple(self.origin))

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / self.length

    def axis(self, k: int = 0) -> np.ndarray:
        return self.origin[k] + self.dx * np.arange(self.n)

    def paxis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def cell_measure(self, rep: str) -> float:
        w = self.dx if rep == "position" else self.dp
        return w**self.dim

    def snap_boundary(self, alpha: float, k: int = 0) -> float:
        """Snap alpha to the nearest cell boundary origin + (j + 1/2) dx."""
        j = round((alpha - self.origin[k]) / self.dx - 0.5)
        return self.origin[k] + (j + 0.5) * self.dx

    def position_mesh(self):
        if self.dim == 1:
            return (self.axis(0),)
        ax = [self.axis(k) for k in range(3)]
        return np.meshgrid(*ax, indexing="ij", sparse=True)

    def momentum_mesh(self):
        p = self.paxis()
        if self.dim == 1:
            return (p,)
        return np.meshgrid(p, p, p, indexing="ij", sparse=True)

    def abs_p(self) -> np.ndarray:
        """|p| on the momentum mesh (shape (n,) or (n, n, n))."""
        return np.sqrt(sum(m**2 for m in self.momentum_mesh()))


@dataclass
class RegionMask:
    """Boolean site mask with set algebra; built from half-spaces, strips, balls."""

    grid: Grid
    sites: np.ndarray

    def __and__(self, other: "RegionMask") -> "RegionMask":
        return RegionMask(self.grid, self.sites & other.sites)

    def __or__(self, other: "RegionMask") -> "RegionMask":
        return RegionMask(self.grid, self.sites | other.sites)

    def __invert__(self) -> "RegionMask":
        return RegionMask(self.grid, ~self.sites)

    @staticmethod
    def full(grid: Grid) -> "RegionMask":
        return RegionMask(grid, np.ones((grid.n,) * grid.dim, dtype=bool))

    @staticmethod
    def half_space(grid: Grid, alpha: float, e: int = +1) -> "RegionMask":
        """{x : x e <= alpha} with e = +-1 along the last axis (e3 in 3D)."""
        ax = grid.dim - 1
        x = grid.axis(ax)
        # {x e <= alpha} is {x <= alpha} for e = +1 and {x >= -alpha} for e = -1
        b = grid.snap_boundary(alpha if e > 0 else -alpha, ax)
        line = (x <= b) if e > 0 else (x >= b)
        return RegionMask(grid, _broadcast_line(grid, line))

    @staticmethod
    def strip(grid: Grid, lo: float, hi: float) -> "RegionMask":
        """{x : lo <= x <= hi} along the last axis (e3 in 3D)."""
        ax = grid.dim - 1
        x = grid.axis(ax)
        line = (x >= grid.snap_boundary(lo, ax)) & (x <= grid.snap_boundary(hi, ax))
        return RegionMask(grid, _broadcast_line(grid, line))

    @staticmethod
    def ball(grid: Grid, center, radius: float) -> "RegionMask":
        mesh = grid.position_mesh()
        center = np.atleast_1d(np.asarray(center, dtype=float))
        r2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
        return RegionMask(grid, r2 <= radius**2)


def _broadcast_line(grid: Grid, line: np.ndarray) -> np.ndarray:
    """A mask of the last axis, repeated over the others."""
    return np.broadcast_to(line, (grid.n,) * grid.dim).copy()


@dataclass
class SpinorField:
    """Immutable-by-convention spinor field; arithmetic returns new instances."""

    grid: Grid
    system: object  # Dirac or Weyl
    rep: str
    values: np.ndarray  # shape grid-sites x components

    def __post_init__(self):
        d = self.system.components
        want = (self.grid.n,) * self.grid.dim + (d,)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape}, expected {want}")
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
            raise WrongRepresentation("fields live on different grids/representations/systems")

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

    def normalized(self) -> "SpinorField":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero field")
        return self * (1.0 / n)

    # --- Fourier duality ----------------------------------------------------
    def to_momentum(self) -> "SpinorField":
        if self.rep != "position":
            raise WrongRepresentation("to_momentum needs a position-representation field")
        g = self.grid
        vals = np.fft.fftn(self.values, axes=tuple(range(g.dim)))
        vals *= _fourier_factor(g, sign=-1)
        return replace(self, rep="momentum", values=vals)

    def to_position(self) -> "SpinorField":
        if self.rep != "momentum":
            raise WrongRepresentation("to_position needs a momentum-representation field")
        g = self.grid
        vals = np.fft.ifftn(self.values * _fourier_factor(g, sign=+1), axes=tuple(range(g.dim)))
        return replace(self, rep="position", values=vals)

    # --- localization -------------------------------------------------------
    def apply_mask(self, mask: RegionMask) -> "SpinorField":
        if self.rep != "position":
            raise WrongRepresentation("masks act in position representation")
        return replace(self, values=self.values * mask.sites[..., None])

    def probability(self, mask: RegionMask) -> float:
        """||1_Delta psi||^2 for a normalized field: localization probability."""
        if self.rep != "position":
            raise WrongRepresentation("masks act in position representation")
        w = self.grid.cell_measure(self.rep)
        inside = self.values[mask.sites, :]
        return float(w * np.vdot(inside, inside).real)

    # --- support helpers ------------------------------------------------------
    def support_bounds(self, axis: int = -1, mass_tol: float = 1e-12):
        """Smallest cell-center interval outside which the relative mass is <= mass_tol.

        Robust against the FFT roundoff floor, which carries ~1e-28 of the
        total probability but nonzero amplitude everywhere.
        """
        if self.rep != "position":
            raise WrongRepresentation("support is a position-space notion")
        g = self.grid
        ax = (g.dim - 1) if axis == -1 else axis
        dens = site_density(self.values)
        if g.dim == 3:
            other = tuple(k for k in range(3) if k != ax)
            dens = dens.sum(axis=other)
        total = float(dens.sum())
        if total == 0.0:
            raise ValueError("field is identically zero")
        cum_l = np.cumsum(dens) / total
        cum_r = np.cumsum(dens[::-1]) / total
        i0 = int(np.searchsorted(cum_l, mass_tol / 2.0, side="right"))
        i1 = g.n - 1 - int(np.searchsorted(cum_r, mass_tol / 2.0, side="right"))
        x = g.axis(ax)
        return float(x[min(i0, g.n - 1)]), float(x[max(min(i1, g.n - 1), 0)])


def site_density(values: np.ndarray) -> np.ndarray:
    """|psi|^2 at each site: re^2 + im^2 summed over the spinor components (no abs, no sqrt)."""
    f = np.ascontiguousarray(values, dtype=complex).view(float)
    return np.einsum("...k,...k->...", f, f)


@functools.lru_cache(maxsize=2)  # the forward and inverse factors of one grid
def _axis_factors(g: Grid, sign: int) -> tuple:
    """Per-axis Fourier factors e^{sign i p origin_k} w, read-only, O(n) each.

    w is the per-axis scale of the transform pair: dx / sqrt(2 pi) for the
    forward FFT (sign -1) and n dp / sqrt(2 pi) for the inverse (sign +1).
    """
    p = g.paxis()
    w = (g.dx if sign < 0 else g.n * g.dp) / np.sqrt(2.0 * np.pi)
    out = []
    for k in range(g.dim):
        f = w * np.exp(sign * 1j * p * g.origin[k])
        f.setflags(write=False)
        out.append(f)
    return tuple(out)


def _fourier_factor(g: Grid, sign: int) -> np.ndarray:
    """Origin phase times scale, broadcast to the value array (the 3D product is per call)."""
    f = _axis_factors(g, sign)
    if g.dim == 1:
        return f[0][:, None]
    return (f[0][:, None, None] * f[1][:, None] * f[2])[..., None]


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
    table.setflags(write=False)
    return table


def _fine_size(m: int) -> int:
    """nufft1's fine-grid size M_r: the least power of two >= 5m/2 and >= 2 _ES_WIDTH."""
    return 1 << int(max((5 * m + 1) // 2, 2 * _ES_WIDTH) - 1).bit_length()


def nufft1(theta: np.ndarray, strengths: np.ndarray, m: int) -> np.ndarray:
    """Type-1 nonuniform DFT f_j = sum_k c_k e^{i j theta_k}, j = 0..m-1.

    theta has shape (K,), strengths (K, d), m >= 1; the result has shape (m, d).
    Each source is spread with the ES kernel phi(x / alpha), alpha = w h / 2,
    onto the w = 15 cells it covers of a fine grid of M_r >= 5m/2 points (a
    power of two, cell h = 2 pi / M_r).  One inverse FFT per component gives
    the Fourier coefficients of the smoothed sum, (alpha / 2 pi) Phi(j alpha) f_j
    with Phi(xi) = int_{-1}^{1} phi(z) e^{i xi z} dz, and dividing by them
    deconvolves.  Phi comes from Gauss-Legendre quadrature of phi (24 nodes
    on (0, 1), computed once; one read-only table per (m, M_r) in a bounded
    cache).  The output modes are centered on j_c = m // 2, so |j - j_c| <= m/2.

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
    # rows are the w kernel taps, so every elementwise pass runs along the K sources;
    # e^beta phi(z) with z = 2 (tap - u) / w, the e^beta going into the deconvolution
    weights = np.arange(w)[:, None] - u
    np.multiply(weights, weights, out=weights)
    np.subtract(0.25 * w * w, weights, out=weights)
    np.sqrt(weights, out=weights)
    weights *= 2.0 * _ES_BETA / w
    np.exp(weights, out=weights)
    cells = ((base + np.arange(w)[:, None]) & (mr - 1)).ravel()  # mod mr (a power of two)
    buf = np.empty_like(weights)
    fine = np.empty((mr, c.shape[0]), dtype=complex)
    for comp, strength in enumerate(c):
        np.multiply(weights, strength.real, out=buf)
        fine[:, comp].real = np.bincount(cells, weights=buf.ravel(), minlength=mr)
        np.multiply(weights, strength.imag, out=buf)
        fine[:, comp].imag = np.bincount(cells, weights=buf.ravel(), minlength=mr)
    coef = np.fft.ifft(fine, axis=0)
    return _es_deconvolution(m, mr)[:, None] * np.concatenate([coef[mr - jc :], coef[: m - jc]])


def sin_cos_sums(k: np.ndarray, x: np.ndarray, sine: np.ndarray, cosine: np.ndarray | None = None):
    """(sum_k sine_k sin(k x_j), sum_k cosine_k cos(k x_j)) at evenly spaced x_j = x_0 + j delta.

    One nufft1 call with sources at theta = +-delta k carrying e^{+-i k x_0}.
    Each sum is within NUFFT_ERR sum_k |strengths| of its column; no cosine
    strengths means an empty cosine sum.
    """
    x = np.asarray(x, dtype=float)
    delta = even_step(x)
    kn, d = sine.shape
    phase = np.exp(1j * k * x[0])[:, None]
    # the four phase * (+-sine, i cosine) blocks, written once into nufft1's source
    # rows; column-major, so that nufft1's per-component pass reads contiguous columns
    cols = d if cosine is None else d + cosine.shape[1]
    strengths = np.empty((cols, 2 * kn), dtype=complex).T
    top, bottom = strengths[:kn], strengths[kn:]
    top[:, :d] = sine
    np.negative(sine, out=bottom[:, :d])
    if cosine is not None:
        np.multiply(1j, cosine, out=top[:, d:])
        bottom[:, d:] = top[:, d:]
    np.multiply(phase, top, out=top)
    np.multiply(phase.conj(), bottom, out=bottom)
    sums = nufft1(np.concatenate([delta * k, -delta * k]), strengths, x.size) / 2j
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
    small = np.abs(z) < 1e-4  # the series of algebra.sinc below 1e-4, and j_1 ~ z/3
    safe = np.where(small, 1.0, z)
    sin, cos = np.sin(safe), np.cos(safe)
    j0 = np.where(small, 1.0 - z * z / 6.0 + z**4 / 120.0, sin / safe)
    j1 = np.where(small, z / 3.0, sin / safe**2 - cos / safe)
    return j0 @ (kl[:, None] * zero[live]), j1 @ (kl[:, None] ** 2 * one[live])


def even_step(x: np.ndarray) -> float:
    """delta of evenly spaced points x_j = x_0 + j delta (to 1e-12 relative); else NotEvenlySpaced."""
    delta = (x[-1] - x[0]) / max(x.size - 1, 1)
    even = x[0] + delta * np.arange(x.size)
    if np.max(np.abs(x - even)) > 1e-12 * max(float(np.max(np.abs(x))), abs(delta)):
        raise NotEvenlySpaced("outputs must be evenly spaced, x_j = x_0 + j delta")
    return float(delta)


def translate(field: SpinorField, shift: float) -> SpinorField:
    """Spatial translation W(shift * e3) by a whole number of cells (exact roll)."""
    if field.rep != "position":
        raise WrongRepresentation("translate acts in position representation")
    g = field.grid
    cells = int(round(shift / g.dx))
    return replace(field, values=np.roll(field.values, cells, axis=g.dim - 1))


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
    stay strictly inside the grid, otherwise SupportExceedsGuard is raised.
    An optional plane-wave factor e^{i momentum x} (last axis) shifts the band.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    mesh = grid.position_mesh()
    for k in range(grid.dim):
        lo, hi = grid.axis(k)[0], grid.axis(k)[-1]
        if center[k] - width - guard < lo + grid.dx or center[k] + width + guard > hi - grid.dx:
            raise SupportExceedsGuard(
                f"support [{center[k]-width}, {center[k]+width}] + guard {guard} leaves axis {k}"
            )
    r2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
    w2 = width * width
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        prof = np.where(r2 < w2, np.exp(-w2 / np.maximum(w2 - r2, 1e-300)), 0.0)
    if momentum:
        prof = prof * np.exp(1j * momentum * mesh[grid.dim - 1])
    spinor = np.asarray(spinor, dtype=complex)
    spinor = spinor / np.linalg.norm(spinor)
    vals = prof[..., None] * spinor
    out = SpinorField(grid, system, "position", vals.astype(complex))
    return out.normalized()


def band_edge(field: SpinorField) -> float:
    """Largest |p| carrying amplitude above 1e-6 of the peak (momentum support edge)."""
    phi = field if field.rep == "momentum" else field.to_momentum()
    amp = np.sqrt(site_density(phi.values))
    big = amp > 1e-6 * float(amp.max())
    return float(field.grid.abs_p()[big].max()) if np.any(big) else 0.0


def dilate(field: SpinorField, lam: float) -> SpinorField:
    """Momentum-representation dilation (D_lam phi)(p) = lam^{dim/2} phi(lam p).

    1D: the Fourier sum phi(q) = dx/sqrt(2 pi) sum_j e^{-i q x_j} psi_j at
    q = lam dp (m - n/2), m = 0..n-1, is one nufft1 call with theta_j =
    -lam dp x_j and strengths psi_j e^{-i theta_j n/2} dx/sqrt(2 pi).
    Unitary up to resampling error for fields band-limited to
    Nyquist/lam.  3D dilation is provided only through radial profiles.
    """
    if field.rep != "momentum":
        raise WrongRepresentation("dilate acts in momentum representation")
    if lam <= 0:
        raise ValueError("lam must be positive")
    g = field.grid
    if g.dim != 1:
        raise NotImplementedError("3D dilation is restricted to radial profiles")
    nyq = np.pi / g.dx
    edge = band_edge(field)
    if lam * edge > nyq * (1.0 + 1e-12):
        raise BandExceeded(f"lam * band = {lam * edge:.3g} exceeds Nyquist {nyq:.3g}")
    psi = field.to_position()
    theta = -lam * g.dp * g.axis(0)
    strengths = psi.values * (np.exp(-0.5j * g.n * theta) * (g.dx / np.sqrt(2.0 * np.pi)))[:, None]
    vals = lam**0.5 * nufft1(theta, strengths, g.n)
    # row m holds p = dp (m - n/2); the grid's FFT order puts p = dp (k - n) at k >= n/2
    return replace(field, values=np.roll(vals, g.n // 2, axis=0))
