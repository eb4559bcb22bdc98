"""Spans around calls into the program's public functions, for traced runs.

Nothing inside ``src/`` is changed: ``Tracer.install`` replaces each target
function with a timing wrapper, in its module, in every module that bound it
with ``from ... import``, and in ``cli.RUNNERS``.  A span records
``[name, start_ns, end_ns, parent span index, op id]``; spans stay in memory
and are written out when the run ends.  Counts derived from call arguments
(``points``, ``terms``, ``elements``, ``samples``) are computed, not measured,
and repeat exactly for the same op list.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE_MODULES = ("algebra", "causalgeo", "cli", "dynamics", "field", "frontier", "pol", "weylradial")


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.data)
    return h.digest()


def _fft_name(a):
    return "field.fft1d" if a["self"].grid.dim == 1 else "field.fft3d"


def _evolve_key(a):
    f = a["field"]
    return (_digest(f.values), float(a["t"]), f.grid, repr(f.system))


def _radial_terms(a):
    nodes_out = a["radii"] if "radii" in a else a["k_nodes"]
    return {"terms": 2 * a["state"].k.size * np.size(nodes_out)}  # orders 0 and 1


def _radial_key(a):
    nodes_out = a["radii"] if "radii" in a else a["k_nodes"]
    st = a["state"]
    return (st.rep, _digest(st.k, st.s, st.v, nodes_out))


def targets(cf):
    """(owner, attribute, span name, count fn, repeat-key fn) for every wrapped function."""
    al, cg, cli, dyn, fd = cf.algebra, cf.causalgeo, cf.cli, cf.dynamics, cf.field
    fr, pol, wr = cf.frontier, cf.pol, cf.weylradial
    points = lambda a: {"points": a["self"].values.size}  # noqa: E731
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "resolve_config", "cli.resolve_config", None, None),
        (cli.CsvWriter, "write", "cli.csv_write", None, None),
        *[(cli, fn.__name__, "cli.runner", None, None) for fn in cli.RUNNERS.values()],
        (fd.SpinorField, "to_momentum", _fft_name, points, None),
        (fd.SpinorField, "to_position", _fft_name, points, None),
        (fd.SpinorField, "support_bounds", "field.support_bounds", None, None),
        (fd, "make_bump", "field.make_bump", None, None),
        (dyn, "evolve_causal", "dynamics.evolve_causal", None, _evolve_key),
        (dyn, "evolution_multiplier_apply", "dynamics.evolution_multiplier_apply", None, None),
        (dyn, "check_guard", "dynamics.check_guard", None, None),
        (dyn, "newton_wigner_leak", "dynamics.newton_wigner_leak", None, None),
        (dyn, "time_reverse", "dynamics.time_reverse", None, None),
        (dyn, "boost_values", "dynamics.boost_values",
         lambda a: {"terms": a["field"].grid.n * np.size(a["x_out"])}, None),
        (al, "sinc", "algebra.sinc", lambda a: {"elements": np.size(a["w"])}, None),
        (fr, "frontier_profile", "frontier.frontier_profile", None, None),
        (fr, "support_edge", "frontier.support_edge", None, None),
        (fr, "fit_tent", "frontier.fit_tent", None, None),
        *[(fr, name, "frontier.late_change_build", None, None)
          for name in ("make_seed_with_dates", "make_late_change_state",
                       "recenter_lower_edge", "soften_lower_edge")],
        (fr, "strip_probability_boosted", "frontier.strip_probability_boosted", None, None),
        (wr, "spectral_evolve", "weylradial.spectral_evolve", None, None),
        (wr, "sine_transform_profile", "weylradial.sine_transform_profile", None, None),
        *[(wr, name, "weylradial.closed_form", None, None)
          for name in ("ball_probability_evolved", "slab_probability_evolved", "splitting_norms")],
        (wr, "simpson_weights", "weylradial.simpson_weights", None, None),
        (wr, "cumulative_simpson", "weylradial.cumulative_simpson", None, None),
        *[(pol, name, "pol.radial_transform", _radial_terms, _radial_key)
          for name in ("radial_to_position", "radial_to_momentum")],
        (pol, "energy_growth", "pol.energy_growth", None, None),
        (pol, "truncation_negative_fraction", "pol.truncation_negative_fraction", None, None),
        (pol, "ball_expectation", "pol.ball_expectation", None, None),
        (pol, "pol_apply", "pol.pol_apply", None, None),
        (pol, "positive_energy_project", "pol.positive_energy_project", None, None),
        (pol, "measurement_cascade", "pol.measurement_cascade", None, None),
        (pol, "random_positive_state", "pol.random_positive_state", None, None),
        (cg, "monte_carlo_line_measure", "causalgeo.monte_carlo_line_measure",
         lambda a: {"samples": (a["n_samples"] // a["strata"]) * a["strata"]}, None),
        *[(cg, name, "causalgeo.predicate", None, None)
          for name in ("shrinking_ball_predicate", "diamond_pair_predicate")],
    ]


class Tracer:
    """Records spans, computed counts, repeats and escaping exceptions."""

    def __init__(self, cf):
        self.cf = cf
        self.spans = []
        self.op = -1
        self.counts = Counter()  # (span name, count name) -> total
        self.repeats = Counter()  # span name -> calls whose key was already seen in the op
        self.errors = Counter()  # module -> exceptions raised out of its wrapped functions
        self._stack = []
        self._keys = set()
        self._raised = set()
        self._patches = []

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._keys.clear()
        self._raised.clear()

    def _span_open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def _span_close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def _wrapper(self, original, name, count, key):
        sig = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            label = name(bound.arguments) if callable(name) else name
            if count is not None:
                for what, n in count(bound.arguments).items():
                    tracer.counts[(label, what)] += n
            if key is not None:
                # hashing the input costs time; its own span keeps it out of the parent's self time
                k_idx = tracer._span_open("trace.repeat_key")
                try:
                    k = (label, key(bound.arguments))
                finally:
                    tracer._span_close(k_idx)
                if k in tracer._keys:
                    tracer.repeats[label] += 1
                tracer._keys.add(k)
            idx = tracer._span_open(label)
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                module = label.split(".", 1)[0]
                if (id(exc), module) not in tracer._raised:
                    tracer._raised.add((id(exc), module))
                    tracer.errors[module] += 1
                raise
            finally:
                tracer._span_close(idx)

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever the package binds it."""
        modules = [getattr(self.cf, m) for m in PACKAGE_MODULES]
        runners = self.cf.cli.RUNNERS
        for owner, attr, name, count, key in targets(self.cf):
            original = vars(owner)[attr]
            wrapper = self._wrapper(original, name, count, key)
            holders = [owner] + [m for m in modules if m is not owner and vars(m).get(attr) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
            for cmd, fn in runners.items():
                if fn is original:
                    self._patches.append((runners, cmd, original))
                    runners[cmd] = wrapper

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._patches.clear()

    def totals(self):
        """Per span name: calls, busy ns (outermost spans of the name), self ns."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, busy, own = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child_ns[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += end - start
        return calls, busy, own

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics; counts and times are per op, ratios over the whole run."""
        calls, busy, own = self.totals()

        def per_op(x):
            return x / n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}

        def layer(name, *what):
            for w in what:
                if w == "calls":
                    out[f"{name}.calls"] = per_op(calls[name])
                elif w == "busy_s":
                    out[f"{name}.busy_s"] = per_op(busy[name] * 1e-9)
                elif w == "self_s":
                    out[f"{name}.self_s"] = per_op(own[name] * 1e-9)
                elif w == "repeat_frac":
                    out[f"{name}.repeat_frac"] = ratio(self.repeats[name], calls[name])
                elif w.endswith("_per_s"):
                    out[f"{name}.{w}"] = ratio(self.counts[(name, w[: -len("_per_s")])], busy[name] * 1e-9)
                else:
                    out[f"{name}.{w}"] = per_op(self.counts[(name, w)])

        layer("cli.resolve_config", "busy_s")
        layer("cli.csv_write", "busy_s")
        layer("cli.runner", "self_s")
        layer("field.fft1d", "calls", "busy_s", "points")
        layer("field.fft3d", "calls", "busy_s", "points")
        layer("field.support_bounds", "calls", "busy_s")
        layer("field.make_bump", "busy_s")
        layer("dynamics.evolve_causal", "calls", "busy_s", "self_s", "repeat_frac")
        layer("dynamics.evolution_multiplier_apply", "busy_s")
        layer("dynamics.check_guard", "calls", "busy_s")
        layer("dynamics.newton_wigner_leak", "busy_s")
        layer("dynamics.boost_values", "calls", "busy_s", "terms", "terms_per_s")
        layer("algebra.sinc", "calls", "busy_s", "elements")
        layer("frontier.frontier_profile", "calls", "busy_s")
        layer("frontier.support_edge", "calls", "busy_s")
        layer("frontier.fit_tent", "busy_s")
        layer("frontier.late_change_build", "busy_s")
        layer("frontier.strip_probability_boosted", "calls", "busy_s", "self_s")
        layer("weylradial.spectral_evolve", "busy_s")
        layer("weylradial.sine_transform_profile", "busy_s")
        layer("weylradial.closed_form", "busy_s")
        layer("pol.radial_transform", "calls", "busy_s", "terms", "repeat_frac")
        layer("pol.energy_growth", "busy_s")
        layer("pol.truncation_negative_fraction", "busy_s")
        layer("pol.ball_expectation", "busy_s")
        layer("pol.pol_apply", "calls", "busy_s", "self_s")
        out["pol.projections_per_apply"] = ratio(calls["pol.positive_energy_project"], calls["pol.pol_apply"])
        layer("pol.measurement_cascade", "busy_s")
        layer("pol.random_positive_state", "busy_s")
        layer("causalgeo.monte_carlo_line_measure", "busy_s", "self_s", "samples", "samples_per_s")
        layer("causalgeo.predicate", "busy_s")
        for module in PACKAGE_MODULES:
            out[f"{module}.errors"] = float(self.errors[module])
        return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s/op"
    if last in ("repeat_frac", "overhead_frac"):
        return "fraction"
    if last == "projections_per_apply":
        return "ratio"
    if last == "errors":
        return "count"
    return "count/op"
