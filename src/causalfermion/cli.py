"""Configuration-driven experiment runner.

Every subcommand reads a plain-text config (``key = value`` lines, ``#``
comments), validates it against the documented key list, and writes CSV
artifacts whose header comments record the tool version and the hash of the
resolved configuration, so identical config + seed yields byte-identical
output on one platform.

Exit codes: 0 success, 1 invariant failure, 2 config error, 3 guard violation.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__, algebra as al, causalgeo as cg, dynamics as dyn
from . import field as fd, frontier as fr, pol, weylradial as wr
from .errors import ConfigError, GuardViolation, InvariantFailure, NoLateChangeSeed

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3


# --- config handling ----------------------------------------------------------

#: width of the bump that seeds the late-change state of boost and contract
_SEED_WIDTH = 0.7
#: cap on grid sites (n**dim), radial and k nodes, frontier times and Monte Carlo rows per shard
_MAX_SIZE = 2**20
#: the radii on which pol reads each phi_n in position representation
_POL_RADII = np.linspace(0.0, 10.0, 4097)

#: lines target -> (measure, predicate, region description)
_TARGETS = {
    "4pi2over45": (cg.SHRINKING_BALL_MEASURE, cg.shrinking_ball_predicate,
                   "lines with |v| <= 1 - |x| (unit-speed budget family)"),
    "2pi2over9": (cg.DIAMOND_PAIR_MEASURE, cg.diamond_pair_predicate,
                  "lines meeting both unit diamonds at x0 = -1 and x0 = +1"),
}


def _dim(cfg) -> int:
    return 3 if "region" in cfg else 1  # cascade is the one command on a 3D grid


def _band_edge(cfg) -> float:
    """Largest momentum the command resolves: pi n / length on a grid, k_max for pol."""
    return cfg["k_max"] if "k_max" in cfg else np.pi * cfg["n"] / cfg["length"]


def _checks_leak(cfg) -> bool:
    """Whether the command compares its causal leak against fd.EPS_LEAK: evolve, the one command with a
    bump and a times list (tests/test_cli.py pins that).  It reads which keys the command has, not their
    values, and resolve_config has set every key before the first check runs."""
    return "bump_width" in cfg and "times" in cfg


def _resolves_state(dx: float, cfg) -> bool:
    """Whether cells dx resolve the initial state: narrower than its bump, with fd.LEAK_SAMPLES samples
    across it where the leak budget is checked, or on cascade's 3D grid with the peak of
    pol.random_positive_state's |p| envelope below the band edge pi / dx."""
    if _dim(cfg) == 3:
        return np.pi / dx > pol.RANDOM_STATE_PEAK
    if _checks_leak(cfg):
        return 2 * cfg["bump_width"] / dx >= fd.LEAK_SAMPLES
    return dx < cfg.get("bump_width", _SEED_WIDTH)


def _finite_list(v) -> bool:
    return len(v) > 0 and all(-np.inf < x < np.inf for x in v)


_POSITIVE = (lambda v, _: 0 < v < np.inf, "finite and > 0")
_FINITE = (lambda v, _: -np.inf < v < np.inf, "finite")
# Simpson's rule on nodes + 1 points needs an even node count
_EVEN_NODES = (lambda v, _: 2 <= v <= _MAX_SIZE and v % 2 == 0, f"an even number in [2, {_MAX_SIZE}]")
_LANE = ("evolve", "frontier")
_LATE = ("boost", "contract")

#: every config key once: key -> (type, check(value, cfg), what the value must be (or a function of cfg that
#: names the command's own rule), {command: default}).
#: A default of None makes the key required (the stochastic experiments need a seed).  resolve_config
#: runs the checks in this order, and a check reads only keys above its own row: a bad value fails its own
#: check before any check that reads it.
KEYS = {
    "system": (str, lambda v, _: v in ("dirac", "weyl"), "'dirac' or 'weyl'", dict.fromkeys(_LANE, "dirac")),
    "chi": (int, lambda v, _: v in (-1, 1), "-1 or 1", dict.fromkeys(_LANE + ("radial",), 1)),
    "region": (str, lambda v, _: v in ("ball", "half_space"), "'ball' or 'half_space'", {"cascade": "ball"}),
    "target": (str, lambda v, _: v in _TARGETS, " or ".join(map(repr, _TARGETS)), {"lines": "4pi2over45"}),
    # a Philox key (lines) must be < 2**128; default_rng (cascade) takes no negative seed
    "seed": (int, lambda v, _: 0 <= v < 2**128, "an integer in [0, 2**128)", {"cascade": None, "lines": None}),
    "depth": (int, lambda v, _: 1 <= v <= pol.MAX_CASCADE_DEPTH, f"between 1 and {pol.MAX_CASCADE_DEPTH}",
              {"cascade": 8}),
    "n": (int, lambda v, cfg: v >= 4 and v & (v - 1) == 0 and v ** _dim(cfg) <= _MAX_SIZE,
          f"a power of two >= 4 with n**dim <= {_MAX_SIZE} grid sites (dim 3 for cascade)",
          {"evolve": 2048, "frontier": 4096, "boost": 8192, "contract": 8192, "cascade": 32}),
    "bump_width": (float, *_POSITIVE, dict.fromkeys(_LANE, 1.0)),
    "bump_center": (float, *_FINITE, dict.fromkeys(_LANE, 0.0)),
    "length": (float, lambda v, cfg: 0 < v < np.inf and _resolves_state(v / cfg["n"], cfg),
               f"finite and > 0, with cells length / n narrower than the bump ({_SEED_WIDTH} for boost and "
               f"contract), for evolve 2 bump_width n / length >= {fd.LEAK_SAMPLES} samples across the bump, "
               f"or for cascade pi n / length above |p| = {pol.RANDOM_STATE_PEAK}",
               {"evolve": 16.0, "frontier": 24.0, "boost": 14.0, "contract": 14.0, "cascade": 8.0}),
    "k_max": (float, *_POSITIVE, {"pol": 140.0}),
    "mass": (float, lambda v, cfg: 0 <= v <= _band_edge(cfg),
             "finite, >= 0 and at most the band edge (pi n / length, or k_max for pol)",
             dict.fromkeys(_LANE + _LATE + ("pol", "cascade"), 1.0)),
    # support_edge takes a mass-fraction tolerance in (0, 1e-2] only
    "edge_tau": (float, lambda v, _: 0 < v <= 1e-2, "in (0, 1e-2]", dict.fromkeys(_LANE, 1e-6)),
    # fit_tent needs at least five samples of the frontier profile
    "n_times": (int, lambda v, _: 5 <= v <= _MAX_SIZE, f"in [5, {_MAX_SIZE}]", {"frontier": 17}),
    "target_t": (float, *_POSITIVE, dict.fromkeys(_LATE, 1.5)),
    # a window under half a cell holds no cell of the seed, and the soft lower edge's ramp is zero on
    # the lowest cell of the recentred state, so that a one-cell window can be left with no mass at all
    "window": (float, lambda v, cfg: 2 * cfg["length"] / cfg["n"] <= v, "at least two cells, 2 length / n",
               dict.fromkeys(_LATE, 0.3)),
    # the boosted momenta cosh(rho) p + sinh(rho) eps(p) stay below 2 e^|rho| times the band edge
    "rhos": (list, lambda v, cfg: _finite_list(v)
             and max(map(abs, v)) < np.log(np.finfo(float).max / 2 / _band_edge(cfg)),
             "a non-empty list of finite numbers with 2 e^|rho| pi n / length a finite float",
             {"boost": [0.5, 1.0, 2.0], "contract": [0.0, 1.0, 2.0, 3.0]}),
    "delta": (float, *_POSITIVE, {"contract": 0.1}),
    "nodes": (int, *_EVEN_NODES, {"radial": 4096}),
    "r_max": (float, *_POSITIVE, {"radial": 2.0}),
    "width": (float, lambda v, cfg: cfg["r_max"] / cfg["nodes"] < v <= cfg["r_max"],
              "in (r_max / nodes, r_max]: the profile spans more than one node and ends inside r_max",
              {"radial": 1.5}),
    # radial's quadrature of the evolved state spans [0, r_max + |t|] in wr.DEFAULT_NODES intervals
    "times": (list, lambda v, cfg: _finite_list(v)
              and ("width" not in cfg or (cfg["r_max"] + max(map(abs, v))) / wr.DEFAULT_NODES < cfg["width"]),
              lambda cfg: "a non-empty list of finite numbers"
              + (f" with (r_max + |t|) / {wr.DEFAULT_NODES} < width" if "width" in cfg else ""),
              {"evolve": [0.5, 1.0, 2.0], "radial": [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]}),
    "k_nodes": (int, *_EVEN_NODES, {"pol": 8192}),
    "shell_lo": (float, *_POSITIVE, {"pol": 1.0}),
    # energy_growth divides by the shell's weight, so a k node must lie in the shell
    "shell_hi": (float, lambda v, cfg: cfg["shell_lo"] < v < cfg["k_max"]
                 and any(cfg["shell_lo"] <= k <= v for k in _pol_k(cfg)),
                 "in (shell_lo, k_max), with a k node in [shell_lo, shell_hi]", {"pol": 2.0}),
    # the largest dilation n moves the shell up to n shell_hi, which must stay below k_max
    "ns": (list, lambda v, cfg: len(v) > 0 and all(1 <= x < np.inf for x in v)
           and max(v) * cfg["shell_hi"] < cfg["k_max"],
           "a non-empty list of numbers >= 1 with max(ns) shell_hi < k_max", {"pol": [1, 2, 4, 8, 16, 32, 64]}),
    # a cascade region and its complement must each hold a site; a ball always holds the origin site.
    # pol reads the ball on _POL_RADII: below its first node past 0 the ball holds no mass to normalize
    "ball_radius": (float, lambda v, cfg: 0 < v < np.inf and (
                        v < np.sqrt(3) * cfg["length"] / 2 if cfg.get("region") == "ball"
                        else "region" in cfg or _POL_RADII[1] <= v <= _POL_RADII[-1]),
                    f"finite and > 0, for a cascade ball below the corner distance sqrt(3) length / 2, "
                    f"and for pol in [{_POL_RADII[1]}, {_POL_RADII[-1]}], the radii it evaluates on",
                    {"pol": 1.0, "cascade": 1.0}),
    "half_space_edge": (float, lambda v, cfg: -np.inf < v < np.inf and (cfg["region"] != "half_space"
                        or -cfg["length"] / 2 <= v < cfg["length"] / 2 - cfg["length"] / cfg["n"]),
                        "finite, and for a half space between the first and the last site along e3",
                        {"cascade": 0.0}),
    "samples": (int, lambda v, _: 1 <= v <= 2**30, "in [1, 2**30]", {"lines": 10_000_000}),
    "strata": (int, lambda v, cfg: 1 <= v <= cfg["samples"] and cfg["samples"] // v <= _MAX_SIZE,
               f"between 1 and samples, with samples // strata <= {_MAX_SIZE} rows per shard", {"lines": 16}),
}


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def _coerce(key: str, raw, typ):
    try:
        if typ is list:
            return [float(v) for v in str(raw).replace(",", " ").split()]
        if typ is int:
            return int(str(raw))
        if typ is float:
            return float(str(raw))
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from exc


def resolve_config(command: str, path: str | None, overrides) -> dict:
    schema = SCHEMAS[command]
    raw = {}
    if path:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        raw.update(parse_config_text(text))
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, val = item.split("=", 1)
        raw[key.strip()] = val.strip()
    cfg = {}
    for key, val in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for {command!r}")
        cfg[key] = _coerce(key, val, schema[key][0])
    for key, (_, default) in schema.items():
        if cfg.setdefault(key, default) is None:
            raise ConfigError(f"{command!r} requires key {key!r}")
    for key, (_, ok, want, _) in KEYS.items():
        if key in cfg and not ok(cfg[key], cfg):
            raise ConfigError(f"key {key!r} = {cfg[key]!r}: must be {want(cfg) if callable(want) else want}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class CsvWriter:
    """RFC-4180-style CSV with '#'-prefixed provenance comments, 17 digits."""

    def __init__(self, path: Path, cfg: dict, extra_comments=()):
        self.path = path
        self.lines = [f"# causalfermion {__version__}", f"# config {config_hash(cfg)}"]
        self.lines += [f"# {k} = {cfg[k]}" for k in sorted(cfg)]
        self.lines += [f"# {c}" for c in extra_comments]

    def header(self, *cols):
        self.lines.append(",".join(cols))

    def row(self, *vals):
        cells = []
        for v in vals:
            if isinstance(v, float):
                _require(np.isfinite(v), f"non-finite value {v} in {self.path.name}")
                cells.append(f"{v:.17g}")
            else:
                cells.append(str(v))
        self.lines.append(",".join(cells))

    def write(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("\r\n".join(self.lines) + "\r\n")
        return self.path


def _require(cond: bool, message: str):
    if not cond:
        raise InvariantFailure(message)


def _system(cfg):
    if cfg["system"] == "dirac":
        return al.Dirac(cfg["mass"])
    return al.Weyl(cfg["chi"])


def _pol_k(cfg) -> np.ndarray:
    return np.linspace(0.0, cfg["k_max"], cfg["k_nodes"] + 1)


def _spinor(system):
    if system.components == 4:
        return [1.0, 0.3, 1.0j, 0.0]
    return [1.0, 0.5j]


# --- subcommands ----------------------------------------------------------------


def run_evolve(cfg, out: Path) -> None:
    system = _system(cfg)
    grid = fd.Grid(1, cfg["n"], cfg["length"] / cfg["n"])
    horizon = max(abs(t) for t in cfg["times"])
    psi = fd.make_bump(grid, cfg["bump_center"], cfg["bump_width"], _spinor(system), system, guard=horizon)
    csv = CsvWriter(out / "evolve.csv", cfg)
    csv.header("t", "norm_dev", "causal_leak", "nw_leak", "edge_plus", "edge_minus")
    # one stream: each evolved state is overwritten at the next time, so everything is read from it here
    for t, (causal_leak, nw_leak, evolved) in zip(cfg["times"], dyn.newton_wigner_leaks(psi, cfg["times"])):
        norm_dev = abs(evolved.norm() - 1.0)
        csv.row(t, norm_dev, causal_leak, nw_leak, *fr.support_edges(evolved, cfg["edge_tau"]))
        _require(norm_dev <= 1e-12, "evolution norm drift")
        _require(causal_leak <= fd.EPS_LEAK, "causal leak above budget")
    print(csv.write())


def run_frontier(cfg, out: Path) -> None:
    system = _system(cfg)
    grid = fd.Grid(1, cfg["n"], cfg["length"] / cfg["n"])
    width = cfg["bump_width"]
    psi = fd.make_bump(grid, cfg["bump_center"], width, _spinor(system), system, guard=4.2 * width)
    times = np.linspace(-2.0 * (2 * width), 2.0 * (2 * width), cfg["n_times"])
    edges_p, edges_m = fr.frontier_profile(psi, times, tau=cfg["edge_tau"])
    fit_p = fr.fit_tent(times, edges_p)
    fit_m = fr.fit_tent(times, edges_m)
    csv = CsvWriter(
        out / "frontier.csv",
        cfg,
        extra_comments=[
            f"tau = {cfg['edge_tau']}, dx = {grid.dx}, dt = {times[1]-times[0]}",
            f"fit_plus e0 = {fit_p.e0:.6g} t_e = {fit_p.t_e:.6g} residual = {fit_p.residual:.6g}",
            f"fit_minus e0 = {fit_m.e0:.6g} t_e = {fit_m.t_e:.6g} residual = {fit_m.residual:.6g}",
        ],
    )
    csv.header("t", "edge_plus_e3", "edge_minus_e3", "fit_value", "residual")
    for t, ep, em in zip(times, edges_p, edges_m):
        csv.row(float(t), float(ep), float(em), float(fit_p.value(t)), abs(float(fit_p.value(t)) - float(ep)))
    print(csv.write())
    _require(fit_p.residual <= 2 * grid.dx, f"tent residual {fit_p.residual} > 2 dx")
    _require(fit_m.residual <= 2 * grid.dx, f"tent residual {fit_m.residual} > 2 dx")


def _build_late_change(cfg):
    grid = fd.Grid(1, cfg["n"], cfg["length"] / cfg["n"])
    system = al.Dirac(cfg["mass"])
    psi0 = fd.make_bump(grid, 0.0, _SEED_WIDTH, _spinor(system), system, guard=3.3)
    eta, t_eb = fr.make_seed_with_dates(psi0, cfg["target_t"])
    try:
        psi = fr.make_late_change_state(eta, cfg["window"], +1, dates=t_eb)
    except NoLateChangeSeed as exc:  # t_eb is fitted from the seed, so no check in KEYS can bound window
        raise ConfigError(f"key 'window' = {cfg['window']!r} does not fit the seed: {exc}") from exc
    psi = fr.recenter_lower_edge(psi)
    plus, minus = fr.support_edges(psi, 1e-6)
    alpha = (-minus - plus) / 2
    psi = fr.soften_lower_edge(psi, alpha)
    return grid, psi, alpha


def run_boost(cfg, out: Path) -> None:
    grid, psi, alpha = _build_late_change(cfg)
    csv = CsvWriter(out / "boost.csv", cfg, extra_comments=[f"alpha = {alpha}"])
    csv.header("rho", "strip_lo", "strip_hi", "p_inside")
    worst = 0.0
    for rho in cfg["rhos"]:
        hi = 2.0 * alpha * np.exp(-rho)
        p = fr.strip_probability_boosted(psi, rho, 0.0, hi)
        worst = max(worst, abs(1.0 - p))
        csv.row(float(rho), 0.0, float(hi), float(p))
    print(csv.write())
    _require(worst <= 1e-4, f"boosted strip leak {worst}")


def run_contract(cfg, out: Path) -> None:
    grid, psi, alpha = _build_late_change(cfg)
    csv = CsvWriter(out / "contract.csv", cfg, extra_comments=[f"alpha = {alpha}"])
    csv.header("rho", "p_strip")
    probs = []  # P(boosted psi in {|x3| <= delta}) at rho >= 3
    for rho in cfg["rhos"]:
        p = fr.strip_probability_boosted(psi, float(rho), -cfg["delta"], cfg["delta"])
        csv.row(float(rho), p)
        if rho >= 3.0:
            probs.append(p)
    print(csv.write())
    if probs:
        _require(min(probs) >= 0.999, f"contraction probability {min(probs)} < 0.999")


def run_radial(cfg, out: Path) -> None:
    w = cfg["width"]

    def gfun(r):
        prof = fd.bump_profile(r * r, w)
        vals = np.zeros(r.shape + (2,), dtype=complex)
        vals[..., 0] = prof
        vals[..., 1] = 0.4j * prof * np.cos(2.1 * r)
        return vals

    profile = wr.RadialProfile.from_callable(gfun, cfg["r_max"], cfg["nodes"]).normalized()
    chi = cfg["chi"]
    csv = CsvWriter(out / "radial.csv", cfg)
    csv.header("t", "ball_prob", "slab_prob", "normA_plus", "normA_minus", "normR")
    for t in cfg["times"]:
        quad = wr.evolved_quadrature(profile, chi, t)
        csv.row(t, wr.ball_probability_evolved(quad), wr.slab_probability_evolved(quad), *wr.splitting_norms(quad))
    print(csv.write())
    err = wr.crosscheck_against_spectral(profile, 1.0)
    _require(err <= 1e-5, f"closed-form vs spectral discrepancy {err}")


def run_pol(cfg, out: Path) -> None:
    system = al.Dirac(cfg["mass"])
    k = _pol_k(cfg)
    lo, hi = cfg["shell_lo"], cfg["shell_hi"]
    shell = pol.shell_state(system, k, lo, hi)
    rows, target = pol.energy_growth(
        shell,
        cfg["ns"],
        lambda n: pol.shell_state(system, k, n * lo, n * hi),
    )
    csv = CsvWriter(out / "pol.csv", cfg, extra_comments=[f"energy target = {target!r}"])
    csv.header("n", "ball_expectation", "energy_over_n", "negative_fraction")
    vals = []
    for n, en in rows:
        # one transform of phi_n serves both the ball expectation and the truncation
        pos = pol.radial_to_position(pol.point_localized_sequence(shell, n), _POL_RADII)
        ball = pol.radial_ball_mass(pos, cfg["ball_radius"])
        vals.append(ball)
        csv.row(n, ball, en, pol.truncated_negative_fraction(pos, cfg["ball_radius"], k))
    print(csv.write())
    _require(vals[-1] >= 0.99, f"point localization stalled at {vals[-1]}")
    _require(abs(rows[-1][1] - target) <= 0.02 * target, "energy growth off target")


def run_cascade(cfg, out: Path) -> None:
    system = al.Dirac(cfg["mass"])
    grid = fd.Grid(3, cfg["n"], cfg["length"] / cfg["n"])
    phi = pol.random_positive_state(grid, system, seed=cfg["seed"])
    if cfg["region"] == "ball":
        mask = fd.RegionMask.ball(grid, (0.0, 0.0, 0.0), cfg["ball_radius"])
    else:
        mask = fd.RegionMask.half_space(grid, cfg["half_space_edge"])
    stats = pol.measurement_cascade(phi, mask, depth=cfg["depth"])
    g_csv = CsvWriter(out / "cascade_gamma.csv", cfg)
    g_csv.header("k", "gamma_k")
    for kk, gam in enumerate(stats.gamma):
        g_csv.row(kk, float(gam))
    print(g_csv.write())
    l_csv = CsvWriter(out / "cascade_levels.csv", cfg)
    l_csv.header("n", "omega_n", "sigma_n")
    for i, (om, sg) in enumerate(zip(stats.omega, stats.sigma), start=1):
        l_csv.row(i, float(om), float(sg))
    print(l_csv.write())
    s_csv = CsvWriter(out / "cascade_summary.csv", cfg)
    s_csv.header("sigma2", "sigma2_prime", "sigma2_bar", "sigma2_bar_prime", "omega_est")
    s_csv.row(
        stats.sigma2,
        stats.sigma2_prime,
        stats.sigma2_bar,
        stats.sigma2_bar_prime,
        float(stats.omega[-1]),
    )
    print(s_csv.write())
    _require(bool(np.all(np.diff(stats.omega) >= -1e-12)), "omega_n not monotone")
    _require(bool(np.all(np.diff(stats.sigma) <= 1e-12)), "sigma_n not monotone")
    s2 = stats.sigma2 + stats.sigma2_prime
    _require(0.5 - 1e-12 <= s2 < 1.0, f"sigma2 + sigma2' = {s2} outside [1/2, 1)")


def run_lattice(cfg, out: Path) -> None:
    I, R = cg.Interval, cg.LightconeRegion
    checks = []
    lhs = R.h(I.le(1.0)).intersect(R.k(I.gt(2.0))).perp()
    checks.append(("fhs_complement", lhs.equals(R.h(I.gt(1.0)).intersect(R.k(I.le(2.0))))))
    checks.append(("halfspace_perp_empty", R.h(I.le(0.0)).perp().is_empty))
    s = 2.0
    two = R.point(0, 0).union(R.point(s, s))
    checks.append(("two_point_completion", two.completion().equals(R.rect(I(0, s), I(0, s)))))
    L = R.h(I.lt(0.0)).intersect(R.k(I.gt(2.0)))
    M = R.h(I.lt(0.0)).intersect(R.k(I.gt(0.0)))
    wit = cg.join(L, M.perp()).intersect(M)
    checks.append(("orthomodularity_failure", wit.equals(M) and not wit.equals(L)))
    alpha, delta = 0.5, 2.0
    diamond = R.h(I.ge(alpha)).intersect(R.k(I.le(delta)))
    checks.append(
        ("diamond_flat_base", cg.spacelike_ray_perp(alpha, delta, -1, False).equals(diamond))
    )
    got = R.rect(I.ge(0.0), I.le(0.0)).perp_ntl()
    want = R.rect(I.le(0.0), I.ge(0.0)).subtract(R.point(0.0, 0.0))
    checks.append(("halfplane_ntl_completion", got.equals(want)))
    csv = CsvWriter(out / "lattice.csv", cfg)
    csv.header("check", "pass")
    ok = True
    for name, passed in checks:
        csv.row(name, int(passed))
        ok &= passed
    print(csv.write())
    _require(ok, "lattice identity failed")


def run_lines(cfg, out: Path) -> None:
    target, predicate, desc = _TARGETS[cfg["target"]]
    res = cg.monte_carlo_line_measure(
        predicate, (-1, -1, -1), (1, 1, 1), cfg["samples"], seed=cfg["seed"], strata=cfg["strata"]
    )
    z = res.z_score(target)
    csv = CsvWriter(out / "lines.csv", cfg, extra_comments=[f"region: {desc}"])
    csv.header("experiment", "N", "estimate", "stderr", "target", "z_score")
    csv.row(cfg["target"], res.samples, res.estimate, res.stderr, target, z)
    print(csv.write())
    _require(abs(z) <= 3.0, f"z-score {z} outside +-3")


def run_selftest(cfg, out: Path) -> None:
    failures = []

    def check(name, cond):
        print(f"{'pass' if cond else 'FAIL'}  {name}")
        if not cond:
            failures.append(name)

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        p = rng.normal(size=3)
        m = abs(rng.normal()) + 0.1
        pp, pm = (al.Dirac(m).projector(p, eta) for eta in (+1, -1))
        worst = max(
            worst,
            np.max(np.abs(pp + pm - np.eye(4))),
            np.max(np.abs(pp @ pp - pp)),
            np.max(np.abs(pp @ pm)),
        )
    check("projector_algebra", worst <= 1e-13)
    grid = fd.Grid(1, 1024, 12.0 / 1024)
    system = al.Dirac(1.0)
    psi = fd.make_bump(grid, 0.0, 1.0, [1, 0, 1j, 0], system, guard=2.2)
    phi = psi.to_momentum()
    check("parseval", abs(phi.norm_sq() - 1.0) <= 1e-12)
    check("roundtrip", (phi.to_position() - psi).norm() <= 1e-12)
    ev = dyn.evolve_causal(psi, 1.0)
    check("unitary_evolution", abs(ev.norm() - 1.0) <= 1e-12)
    both = dyn.evolve_causal(dyn.evolve_causal(psi, 0.6), 0.4)
    check("group_law", (both - ev).norm() <= 1e-12)
    cleak, nwleak, _ = dyn.newton_wigner_leak(psi, 1.0)
    check("causal_leak_budget", cleak <= fd.EPS_LEAK)
    check("newton_wigner_leaks", nwleak >= 100 * fd.EPS_LEAK)
    tr = dyn.time_reverse(dyn.time_reverse(psi))
    check("time_reversal_square", (tr + psi).norm() <= 1e-12)
    prof = wr.RadialProfile.from_callable(
        lambda r: np.stack(
            [fd.bump_profile(r * r, 1.5),
             np.zeros_like(r)], axis=-1
        ).astype(complex),
        2.0,
        2048,
    ).normalized()
    check("weyl_crosscheck", wr.crosscheck_against_spectral(prof, 1.0) <= 1e-5)
    lhs = cg.LightconeRegion.h(cg.Interval.le(1.0)).intersect(
        cg.LightconeRegion.k(cg.Interval.gt(2.0))
    ).perp()
    rhs = cg.LightconeRegion.h(cg.Interval.gt(1.0)).intersect(
        cg.LightconeRegion.k(cg.Interval.le(2.0))
    )
    check("interval_algebra", lhs.equals(rhs))
    if failures:
        raise InvariantFailure(f"selftest failures: {failures}")
    print("selftest: all checks passed")


RUNNERS = {
    "evolve": run_evolve,
    "frontier": run_frontier,
    "boost": run_boost,
    "contract": run_contract,
    "radial": run_radial,
    "pol": run_pol,
    "cascade": run_cascade,
    "lattice": run_lattice,
    "lines": run_lines,
    "selftest": run_selftest,
}

#: {command: {key: (type, default)}}: the view of KEYS that resolve_config and bench/gate.py read
SCHEMAS = {cmd: {key: (row[0], row[3][cmd]) for key, row in KEYS.items() if cmd in row[3]} for cmd in RUNNERS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="causalfermion", description=__doc__)
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--config", help="plain-text config file (key = value lines)")
    parser.add_argument("--out", default="out", help="artifact output directory")
    parser.add_argument(
        "--set", dest="overrides", action="append", metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.command, args.config, args.overrides)
        RUNNERS[args.command](cfg, Path(args.out))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardViolation as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantFailure as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
