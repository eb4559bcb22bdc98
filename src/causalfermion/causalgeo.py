"""Region-of-influence geometry, the 1+1 lightcone causal lattice, timelike lines.

Transverse-invariant spacetime sets (invariant under x1, x2 translations) are
represented by finite unions of rectangles in the lightcone coordinates
u = x0 - x3, v = x0 + x3, each endpoint carrying an open/closed flag.  Between
two points the spacelike relation reads Du Dv < 0 and the non-timelike one
Du Dv <= 0, so both causal complements reduce to exact interval computations:

    rect^perp          = (above u x below v) u (below u x above v)
    rect^perp' allowed = ({u <= inf U} u {v <= inf V}) n ({u >= sup U} u {v >= sup V})

with the perp' result then stripped of the region itself (x != y).

Timelike lines are parameterized as (x, v) = (0, x) + R (1, v) with |v| < 1;
the set of lines meeting a region carries the Lebesgue measure of R^3 x O_1.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

INF = float("inf")


# --- interval algebra with open/closed flags ---------------------------------


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo == -INF and not self.lo_open:
            object.__setattr__(self, "lo_open", True)
        if self.hi == INF and not self.hi_open:
            object.__setattr__(self, "hi_open", True)

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def subtract(self, other: "Interval"):
        """self minus other, as a list of up to two intervals."""
        cut = self.intersect(other)
        if cut.empty:
            return [self]
        out = []
        left = Interval(self.lo, cut.lo, self.lo_open, not cut.lo_open)
        if not left.empty:
            out.append(left)
        right = Interval(cut.hi, self.hi, not cut.hi_open, self.hi_open)
        if not right.empty:
            out.append(right)
        return out

    def above(self) -> "Interval":
        """{x : x > x' for all x' in self}: flips the endpoint flag."""
        return Interval(self.hi, INF, lo_open=not self.hi_open, hi_open=True)

    def below(self) -> "Interval":
        return Interval(-INF, self.lo, lo_open=True, hi_open=not self.lo_open)

    @staticmethod
    def all() -> "Interval":
        return Interval(-INF, INF, True, True)

    @staticmethod
    def le(a: float) -> "Interval":
        return Interval(-INF, a, True, False)

    @staticmethod
    def lt(a: float) -> "Interval":
        return Interval(-INF, a, True, True)

    @staticmethod
    def ge(a: float) -> "Interval":
        return Interval(a, INF, False, True)

    @staticmethod
    def gt(a: float) -> "Interval":
        return Interval(a, INF, True, True)

    @staticmethod
    def point(a: float) -> "Interval":
        return Interval(a, a, False, False)


@dataclass(frozen=True)
class Rect:
    u: Interval
    v: Interval

    @property
    def empty(self) -> bool:
        return self.u.empty or self.v.empty

    def intersect(self, other: "Rect") -> "Rect":
        return Rect(self.u.intersect(other.u), self.v.intersect(other.v))

    def subtract(self, other: "Rect"):
        cut_u = self.u.intersect(other.u)
        cut_v = self.v.intersect(other.v)
        if cut_u.empty or cut_v.empty:
            return [self]
        out = [Rect(piece, self.v) for piece in self.u.subtract(cut_u)]
        out.extend(Rect(cut_u, piece) for piece in self.v.subtract(cut_v))
        return [r for r in out if not r.empty]


class LightconeRegion:
    """Finite union of pairwise-disjoint (u, v) rectangles; normalization idempotent."""

    def __init__(self, rects=()):
        disjoint: list[Rect] = []
        for r in rects:
            if r.empty:
                continue
            pieces = [r]
            for existing in disjoint:
                pieces = [q for p in pieces for q in p.subtract(existing)]
            disjoint.extend(pieces)
        self.rects = tuple(disjoint)

    # --- constructors ----------------------------------------------------
    @staticmethod
    def full() -> "LightconeRegion":
        return LightconeRegion([Rect(Interval.all(), Interval.all())])

    @staticmethod
    def h(iv: Interval) -> "LightconeRegion":
        """Half-space family on u = x0 - x3."""
        return LightconeRegion([Rect(iv, Interval.all())])

    @staticmethod
    def k(iv: Interval) -> "LightconeRegion":
        """Half-space family on v = x0 + x3."""
        return LightconeRegion([Rect(Interval.all(), iv)])

    @staticmethod
    def rect(u: Interval, v: Interval) -> "LightconeRegion":
        return LightconeRegion([Rect(u, v)])

    @staticmethod
    def point(u: float, v: float) -> "LightconeRegion":
        return LightconeRegion([Rect(Interval.point(u), Interval.point(v))])

    # --- set algebra ------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return len(self.rects) == 0

    def union(self, other: "LightconeRegion") -> "LightconeRegion":
        return LightconeRegion(list(self.rects) + list(other.rects))

    def intersect(self, other: "LightconeRegion") -> "LightconeRegion":
        return LightconeRegion(
            [a.intersect(b) for a in self.rects for b in other.rects]
        )

    def subtract(self, other: "LightconeRegion") -> "LightconeRegion":
        pieces = list(self.rects)
        for b in other.rects:
            pieces = [q for p in pieces for q in p.subtract(b)]
        return LightconeRegion(pieces)

    def equals(self, other: "LightconeRegion") -> bool:
        return self.subtract(other).is_empty and other.subtract(self).is_empty

    def __repr__(self) -> str:
        def fmt(iv: Interval) -> str:
            l = "(" if iv.lo_open else "["
            r = ")" if iv.hi_open else "]"
            return f"{l}{iv.lo:g},{iv.hi:g}{r}"

        return "Region{" + " u ".join(f"{fmt(r.u)}x{fmt(r.v)}" for r in self.rects) + "}"

    # --- causal complements -------------------------------------------------
    def perp(self) -> "LightconeRegion":
        """Spacelike complement: (x - y)^2 < 0 against every point."""
        out = LightconeRegion.full()
        for r in self.rects:
            piece = LightconeRegion(
                [Rect(r.u.above(), r.v.below()), Rect(r.u.below(), r.v.above())]
            )
            out = out.intersect(piece)
        return out

    def perp_ntl(self) -> "LightconeRegion":
        """Non-timelike complement: x != y and (x - y)^2 <= 0 against every point."""
        out = LightconeRegion.full()
        for r in self.rects:
            low = LightconeRegion.h(Interval.le(r.u.lo)).union(
                LightconeRegion.k(Interval.le(r.v.lo))
            )
            high = LightconeRegion.h(Interval.ge(r.u.hi)).union(
                LightconeRegion.k(Interval.ge(r.v.hi))
            )
            out = out.intersect(low.intersect(high))
        return out.subtract(self)

    def completion(self) -> "LightconeRegion":
        return self.perp().perp()


def join(a: LightconeRegion, b: LightconeRegion) -> LightconeRegion:
    """Lattice join: completion of the union.  The meet of complete regions is plain ``intersect``."""
    return a.union(b).completion()


def spacelike_ray_perp(u0: float, v0: float, du: int, include_start: bool = True) -> LightconeRegion:
    """Spacelike complement of the diagonal ray {(u0 + s du, v0 - s du) : s >= 0}.

    du = +1 runs toward growing u (falling v), du = -1 the mirror.  The product
    (u - u(s))(v - v(s)) is concave in s, so the complement is the pair of
    quadrant conditions at the clamped vertex -- plain rectangles.  An open
    start (include_start = False) relaxes the strict inequality at s = 0 to a
    closed one.
    """
    if du == +1:
        quad_u = Interval.lt(u0) if include_start else Interval.le(u0)
        quad_v = Interval.gt(v0) if include_start else Interval.ge(v0)
    else:
        quad_u = Interval.gt(u0) if include_start else Interval.ge(u0)
        quad_v = Interval.lt(v0) if include_start else Interval.le(v0)
    return LightconeRegion([Rect(quad_u, quad_v)])


# --- region-of-influence closed forms ----------------------------------------


@dataclass(frozen=True)
class BallDescriptor:
    center: tuple
    radius: float


def influence_ball(y, t: float) -> BallDescriptor:
    """Influence of the event (t, y) in the t = 0 space: ball (y, |t|)."""
    y = tuple(float(c) for c in y)
    return BallDescriptor(y, abs(float(t)))


def influence_boosted_point(y, rho: float) -> BallDescriptor:
    """Influence of the boosted point A_rho . y: ball around (y1, y2, cosh(rho) y3)."""
    y = [float(c) for c in y]
    return BallDescriptor((y[0], y[1], np.cosh(rho) * y[2]), abs(np.sinh(rho) * y[2]))


def influence_strip(a: float, b: float, rho: float):
    """{a <= x e <= b} (a <= b) boosted: a moves down and b up, each by a factor e^{+-|rho|}.

    [a e^{-|rho|}, b e^{|rho|}] when 0 <= a; an end below 0 takes the other factor.
    """
    if not a <= b:
        raise ValueError("strip needs a <= b")
    r = abs(rho)
    return a * np.exp(-r if a >= 0 else r), b * np.exp(r if b >= 0 else -r)


def influence_cylinder(c: float, a: float, b: float, rho: float):
    """Revolution profile of the boosted cylinder {x1^2+x2^2 <= c^2, a <= x3 <= b}.

    Returns the profile in the (x1, x3) half-plane: corner points P1..P4, the
    two circular arcs around the boosted end faces, and the straight flank.
    """
    if not 0.0 <= a < b or not c > 0:
        raise ValueError("cylinder needs 0 <= a < b and c > 0")
    r = abs(rho)
    ch, sh, th = np.cosh(r), np.sinh(r), np.tanh(r)
    return {
        "P1": (c, 0.0, a * np.exp(-r)),
        "P2": (c + th * a, 0.0, a / ch),
        "P3": (c + th * b, 0.0, b / ch),
        "P4": (c, 0.0, b * np.exp(r)),
        "arc_low": {"center": (c, 0.0, ch * a), "radius": sh * a},
        "arc_high": {"center": (c, 0.0, ch * b), "radius": sh * b},
    }


# --- diamonds and timelike lines --------------------------------------------


@dataclass(frozen=True)
class DiamondRegion:
    """{x : |x0 - c| + |x - a| <= r}: the completion of a flat ball base."""

    c: float
    a: tuple
    r: float


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (N, 3) array, bit-identical to np.linalg.norm(a, axis=1)."""
    x, y, z = a[:, 0], a[:, 1], a[:, 2]
    return np.sqrt((x * x + y * y) + z * z)


def hits_all(diamonds, lines_x: np.ndarray, lines_v: np.ndarray) -> np.ndarray:
    """Whether each line (x, v) of the batch meets every diamond: |x + c v - a| <= r for each.

    On the line, f(s) = |s - c| + |x + s v - a| - r.  The second term changes
    at rate at most |v| < 1, so f falls for s < c and rises for s > c, and
    min f = f(c).  A timelike line therefore meets the diamond exactly when it
    crosses the base ball {x0 = c, |x - a| <= r}.
    """
    ok = np.ones(lines_x.shape[0], dtype=bool)
    for d in diamonds:
        ok &= _row_norms(lines_x + d.c * lines_v - np.asarray(d.a, dtype=float)) <= d.r
    return ok


# --- reference sets and constants --------------------------------------------

#: lambda^6 of {(x, v) : |v| <= 1 - |x|} = (4 pi/3)(4 pi) B(3, 4) = 4 pi^2 / 45:
#: the lines staying inside the unit ball at unit speed budget |x| + |v| <= 1
SHRINKING_BALL_MEASURE = 4.0 * np.pi**2 / 45.0

#: lambda^6 of {(x, v) : |x + v| <= 1 and |x - v| <= 1}: the exact set of lines
#: meeting both diamonds {|x0 -+ 1| + |x| <= 1}.  A hit of {|x0 - 1| + |x| <= 1}
#: at any time s forces |x + v| <= 1 (convexity: |x + v| <= |x + s v| +
#: |1 - s||v| <= 1 - |1 - s|(1 - |v|)), and s = 1 realizes it conversely; the
#: substitution a = x + v, b = x - v has Jacobian 1/8, giving (1/8)(4 pi/3)^2.
DIAMOND_PAIR_MEASURE = 2.0 * np.pi**2 / 9.0


def shrinking_ball_predicate(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|v| <= 1 - |x| membership (the 4 pi^2/45 family)."""
    return _row_norms(v) <= 1.0 - _row_norms(x)


def diamond_pair_predicate(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Closed form of 'hits both unit diamonds at x0 = +-1': max(|x+v|, |x-v|) <= 1."""
    return np.maximum(_row_norms(x + v), _row_norms(x - v)) <= 1.0


# --- Monte Carlo measure over timelike lines ---------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    estimate: float
    stderr: float
    hits: int
    samples: int

    def z_score(self, target: float) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.estimate == target else INF
        return (self.estimate - target) / self.stderr


#: rows per block of the direction normalization and the predicate, so that a
#: worker's temporaries stay block-sized whatever the shard size
MC_BLOCK_ROWS = 8192


def monte_carlo_line_measure(
    predicate,
    box_lo,
    box_hi,
    n_samples: int,
    seed: int,
    strata: int = 16,
) -> MonteCarloResult:
    """lambda^6 of {(x, v) : predicate} estimated on box x O_1 (open unit ball).

    Stratified over equal shards with per-shard counter-based Philox streams
    (key = seed, counter offset = shard), so results are reproducible and
    shards are independent.  predicate(x_batch, v_batch) -> bool array; it is
    called on row blocks of at most ``MC_BLOCK_ROWS`` lines, from several
    threads at once.

    The shards run on min(strata, usable CPUs) workers: the calling thread is
    worker 0, and worker w takes shards w, w + workers, ...  The Philox fills
    and numpy's loops release the GIL, so the workers overlap.  The calling
    thread allocates one (x, d, r) buffer set per worker, which the worker
    refills in place for each of its shards; a worker allocates only
    block-sized temporaries.  Per-shard hit counts are summed in shard order,
    so every field of the result is bit-identical for any worker count.  An
    exception raised in a worker is raised from this call once every worker
    has stopped.
    """
    box_lo = np.asarray(box_lo, dtype=float)
    box_hi = np.asarray(box_hi, dtype=float)
    vol = float(np.prod(box_hi - box_lo)) * (4.0 * np.pi / 3.0)
    per = n_samples // strata
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(strata, cpus)
    buffers = [(np.empty((per, 3)), np.empty((per, 3)), np.empty(per)) for _ in range(workers)]
    hits = [0] * strata
    errors = [None] * workers

    def work(w: int) -> None:
        x, d, r = buffers[w]
        try:
            for shard in range(w, strata, workers):
                if any(errors):
                    return
                _fill_shard(seed, shard, box_lo, box_hi - box_lo, x, d, r)
                hits[shard] = _shard_hits(predicate, x, d, r)
        except BaseException as exc:
            errors[w] = exc

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    means = np.array([h / per for h in hits])
    p = float(np.mean(means))
    var_of_mean = float(np.var(means, ddof=1) / strata) if strata > 1 else p * (1 - p) / per
    return MonteCarloResult(
        estimate=vol * p,
        stderr=vol * float(np.sqrt(var_of_mean)),
        hits=sum(hits),
        samples=per * strata,
    )


def _fill_shard(seed: int, shard: int, box_lo, span, x, d, r) -> None:
    """Draw one shard in place: positions x in the box, normal d, radii r^(1/3)."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, shard]))
    rng.random(out=x)
    x *= span
    x += box_lo
    # uniform in the open unit ball: direction d/|d| times radius r^(1/3)
    rng.standard_normal(out=d)
    rng.random(out=r)
    np.power(r, 1.0 / 3.0, out=r)


def _shard_hits(predicate, x, d, r) -> int:
    """Hits of one shard; turns d into the velocities v in place, block by block."""
    hits = 0
    for lo in range(0, r.size, MC_BLOCK_ROWS):
        v = d[lo:lo + MC_BLOCK_ROWS]
        v /= _row_norms(v)[:, None]
        v *= r[lo:lo + MC_BLOCK_ROWS, None]
        hits += int(np.count_nonzero(predicate(x[lo:lo + MC_BLOCK_ROWS], v)))
    return hits
