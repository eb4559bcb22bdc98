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
import io
import struct
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .algebra import Dirac, Weyl, sinc
from .errors import (
    BandExceeded,
    NotEvenlySpaced,
    SupportExceedsGuard,
    WrongRepresentation,
)

#: fraction of total probability allowed to leak outside causal bounds for
#: smooth compact states with >= 16 samples across the bump (measured budget)
EPS_LEAK = 1e-8

_SUPPORT_RTOL = 1e-13  # relative amplitude below which a sample counts as zero


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
    def empty(grid: Grid) -> "RegionMask":
        return RegionMask(grid, np.zeros((grid.n,) * grid.dim, dtype=bool))

    @staticmethod
    def half_space(grid: Grid, alpha: float, e: int = +1, axis: int = -1) -> "RegionMask":
        """{x : x e <= alpha} with e = +-1 along the last axis (e3 in 3D)."""
        ax = (grid.dim - 1) if axis == -1 else axis
        x = grid.axis(ax)
        # {x e <= alpha} is {x <= alpha} for e = +1 and {x >= -alpha} for e = -1
        b = grid.snap_boundary(alpha if e > 0 else -alpha, ax)
        line = (x <= b) if e > 0 else (x >= b)
        return RegionMask(grid, _broadcast_line(grid, line, ax))

    @staticmethod
    def strip(grid: Grid, lo: float, hi: float, axis: int = -1) -> "RegionMask":
        ax = (grid.dim - 1) if axis == -1 else axis
        x = grid.axis(ax)
        line = (x >= grid.snap_boundary(lo, ax)) & (x <= grid.snap_boundary(hi, ax))
        return RegionMask(grid, _broadcast_line(grid, line, ax))

    @staticmethod
    def ball(grid: Grid, center, radius: float) -> "RegionMask":
        mesh = grid.position_mesh()
        center = np.atleast_1d(np.asarray(center, dtype=float))
        r2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
        return RegionMask(grid, r2 <= radius**2)


def _broadcast_line(grid: Grid, line: np.ndarray, ax: int) -> np.ndarray:
    if grid.dim == 1:
        return line.copy()
    shape = [1, 1, 1]
    shape[ax] = grid.n
    return np.broadcast_to(line.reshape(shape), (grid.n,) * 3).copy()


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


#: Gaussian-gridding half-width W in fine-grid cells.  At oversampling ratio
#: R >= 2 the aliasing error exp(-pi W (R-1)/(R-1/2)) <= 1.5e-12 and the
#: truncation error exp(-pi W (R-1/2)/R) <= 5e-14 (relative to sum_k |c_k|);
#: measured against the direct sum: <= 4e-13 of max |f_j| on random strengths
_NUFFT_HALF_WIDTH = 13
NUFFT_ERR = 1.6e-12  # bound on the sum of both errors above, per unit sum_k |c_k|


def nufft1(theta: np.ndarray, strengths: np.ndarray, m: int) -> np.ndarray:
    """Type-1 nonuniform DFT f_j = sum_k c_k e^{i j theta_k}, j = 0..m-1.

    theta has shape (K,), strengths (K, d), m >= 1; the result has shape (m, d).
    Gaussian gridding (Greengard & Lee, SIAM Rev. 46, 2004): the sources are
    spread with the periodized Gaussian g(t) = sum_l exp(-(t - 2 pi l)^2 / 4 tau)
    onto a fine grid of M_r >= 2m points (a power of two), one inverse FFT per
    component gives the Fourier coefficients of the smoothed sum, and dividing
    by g's coefficients sqrt(tau/pi) exp(-j^2 tau) deconvolves.  The output
    modes are centered on j_c = m // 2 so the deconvolution never exceeds
    |j - j_c| <= m/2.  tau = pi W / (m^2 R (R - 1/2)) is set from the actual
    ratio R = M_r / m (rounding M_r up makes R > 2; a tau sized for R = 2
    would then truncate the Gaussian early).  theta is reduced to [-pi, pi],
    which keeps a small negative theta exact; reduced to [0, 2 pi) it would be
    rounded to ulp(2 pi), which costs ~3e-13 of max |f_j| in sums that cancel
    between sources at +-theta (a sine at small k x).
    """
    theta = np.asarray(theta, dtype=float)
    theta = theta - 2.0 * np.pi * np.round(theta / (2.0 * np.pi))
    c = np.asarray(strengths, dtype=complex)
    half = _NUFFT_HALF_WIDTH
    jc = m // 2
    mr = 1 << int(max(2 * m, 2 * half) - 1).bit_length()
    ratio = mr / m
    tau = np.pi * half / (m * m * ratio * (ratio - 0.5))
    cell = 2.0 * np.pi / mr
    c = c * np.exp(1j * jc * theta)[:, None]
    scaled = theta / cell
    base = np.floor(scaled).astype(np.intp)
    offsets = np.arange(1 - half, half + 1)
    frac = (scaled - base)[:, None] - offsets
    weights = np.exp(-(cell * cell / (4.0 * tau)) * frac * frac)
    cells = ((base[:, None] + offsets) & (mr - 1)).ravel()  # mod mr (a power of two)
    fine = np.empty((mr, c.shape[1]), dtype=complex)
    for comp in range(c.shape[1]):
        real = np.bincount(cells, weights=(weights * c[:, comp, None].real).ravel(), minlength=mr)
        imag = np.bincount(cells, weights=(weights * c[:, comp, None].imag).ravel(), minlength=mr)
        fine[:, comp] = real + 1j * imag
    coef = np.fft.ifft(fine, axis=0)
    j = np.arange(m) - jc
    return np.sqrt(np.pi / tau) * np.exp(tau * j * j)[:, None] * coef[j % mr]


def sin_cos_sums(k: np.ndarray, x: np.ndarray, sine: np.ndarray, cosine: np.ndarray | None = None):
    """(sum_k sine_k sin(k x_j), sum_k cosine_k cos(k x_j)) at evenly spaced x_j = x_0 + j delta.

    One nufft1 call with sources at theta = +-delta k carrying e^{+-i k x_0}.
    Each sum is within NUFFT_ERR sum_k |strengths| of its column; no cosine
    strengths means an empty cosine sum.
    """
    x = np.asarray(x, dtype=float)
    delta = even_step(x)
    d = sine.shape[1]
    cosine = sine[:, :0] if cosine is None else 1j * cosine
    phase = np.exp(1j * k * x[0])[:, None]
    strengths = np.vstack([phase * np.hstack([sine, cosine]), phase.conj() * np.hstack([-sine, cosine])])
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
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    j1 = np.where(small, z / 3.0, np.sin(safe) / safe**2 - np.cos(safe) / safe)
    return sinc(z) @ (kl[:, None] * zero[live]), j1 @ (kl[:, None] ** 2 * one[live])


def even_step(x: np.ndarray) -> float:
    """delta of evenly spaced points x_j = x_0 + j delta (to 1e-12 relative); else NotEvenlySpaced."""
    delta = (x[-1] - x[0]) / max(x.size - 1, 1)
    even = x[0] + delta * np.arange(x.size)
    if np.max(np.abs(x - even)) > 1e-12 * max(float(np.max(np.abs(x))), abs(delta)):
        raise NotEvenlySpaced("outputs must be evenly spaced, x_j = x_0 + j delta")
    return float(delta)


def translate(field: SpinorField, shift: float, axis: int = -1) -> SpinorField:
    """Spatial translation W(shift * e) by a whole number of cells (exact roll)."""
    if field.rep != "position":
        raise WrongRepresentation("translate acts in position representation")
    g = field.grid
    ax = (g.dim - 1) if axis == -1 else axis
    cells = int(round(shift / g.dx))
    return replace(field, values=np.roll(field.values, cells, axis=ax))


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


def make_radial_state(g_of_r, chi: int, grid: Grid) -> SpinorField:
    """3D Weyl field psi(x) = g(|x|) from a radial 2-spinor profile callable."""
    if grid.dim != 3:
        raise ValueError("radial states need a 3D grid")
    mesh = grid.position_mesh()
    r = np.sqrt(sum(m**2 for m in mesh))
    gv = np.asarray(g_of_r(r.ravel()))
    if gv.shape != (r.size, 2):
        raise ValueError("profile callable must map radii to shape (n, 2)")
    vals = gv.reshape(r.shape + (2,)).astype(complex)
    return SpinorField(grid, Weyl(chi), "position", vals)


def band_edge(field: SpinorField, rtol: float = 1e-6) -> float:
    """Largest |p| carrying relative amplitude above rtol (momentum support edge)."""
    phi = field if field.rep == "momentum" else field.to_momentum()
    amp = np.sqrt(site_density(phi.values))
    big = amp > rtol * float(amp.max())
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


# --- serialization ----------------------------------------------------------

_MAGIC = b"CFSF"
_KIND_CODE = {"dirac": 0, "weyl": 1}
_REP_CODE = {"position": 0, "momentum": 1}


def to_bytes(field: SpinorField) -> bytes:
    """Flat binary snapshot: header + little-endian complex64 payload."""
    g = field.grid
    s = field.system
    kind = _KIND_CODE[s.kind]
    param = s.m if s.kind == "dirac" else float(s.chi)
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<HBBBB", 1, g.dim, _REP_CODE[field.rep], kind, s.components))
    buf.write(struct.pack("<Id", g.n, g.dx))
    buf.write(struct.pack(f"<{g.dim}d", *g.origin))
    buf.write(struct.pack("<d", param))
    buf.write(np.ascontiguousarray(field.values, dtype="<c8").tobytes())
    return buf.getvalue()


def from_bytes(data: bytes) -> SpinorField:
    buf = io.BytesIO(data)
    if buf.read(4) != _MAGIC:
        raise ValueError("not a spinor-field snapshot")
    _ver, dim, rep_c, kind_c, d = struct.unpack("<HBBBB", buf.read(6))
    n, dx = struct.unpack("<Id", buf.read(12))
    origin = struct.unpack(f"<{dim}d", buf.read(8 * dim))
    (param,) = struct.unpack("<d", buf.read(8))
    grid = Grid(dim, n, dx, origin)
    system = Dirac(param) if kind_c == 0 else Weyl(int(param))
    count = n**dim * d
    vals = np.frombuffer(buf.read(8 * count), dtype="<c8").astype(complex)
    vals = vals.reshape((n,) * dim + (d,))
    rep = "position" if rep_c == 0 else "momentum"
    return SpinorField(grid, system, rep, vals)


def density_csv(field: SpinorField, out, comments=()) -> None:
    """CSV export of the |psi(x)|^2 profile along the last axis (x, density)."""
    if field.rep != "position":
        raise WrongRepresentation("density profile needs position representation")
    g = field.grid
    dens = site_density(field.values)
    if g.dim == 3:
        dens = dens.sum(axis=(0, 1)) * g.dx**2
    x = g.axis(g.dim - 1)
    for c in comments:
        out.write(f"# {c}\r\n")
    out.write("x,density\r\n")
    for xi, di in zip(x, dens):
        out.write(f"{xi:.17g},{di:.17g}\r\n")
