"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import ops  # noqa: E402

CLI = gate.load_cli()

import causalfermion  # noqa: E402
import spans  # noqa: E402

REFERENCE = json.loads(gate.REFERENCE.read_text())


@pytest.mark.parametrize("workload", sorted(ops.BLOCKS))
def test_same_workload_and_seed_give_identical_op_list(workload):
    first = ops.op_list(workload, 7, 3)
    assert first == ops.op_list(workload, 7, 3)
    assert first != ops.op_list(workload, 8, 3)


@pytest.mark.parametrize("workload", sorted(ops.BLOCKS))
def test_every_block_has_the_workload_class_mix(workload):
    gen = ops.blocks(workload, 3)
    for _ in range(4):
        assert Counter(cls for cls, _ in next(gen)) == Counter(ops.BLOCKS[workload])


def test_every_op_the_generator_can_emit_has_a_reference():
    classes = {cls for counts in ops.BLOCKS.values() for cls in counts}
    missing = [ops.op_key(a) for cls in classes for a in ops.VARIANTS[cls] if ops.op_key(a) not in REFERENCE]
    assert missing == []


def _traced(argv, tmp_path):
    tracer = spans.Tracer(causalfermion)
    tracer.install()
    try:
        tracer.begin_op(0)
        rc, _, error = gate.execute(lambda a: CLI.main(a), argv, tmp_path)
    finally:
        tracer.uninstall()
    assert (rc, error) == (0, None)
    return tracer.metrics(1)


def test_default_frontier_op_counts(tmp_path):
    m = _traced(["frontier"], tmp_path)
    assert m["dynamics.evolve_causal.calls"] == 34
    assert m["field.fft1d.calls"] == 68
    assert m["dynamics.evolve_causal.repeat_frac"] == 0.5


def test_default_contract_op_counts(tmp_path):
    m = _traced(["contract"], tmp_path)
    assert m["dynamics.boost_values.calls"] == 4
    assert m["dynamics.boost_values.terms"] == 15_712_256
    assert m["dynamics.evolve_causal.calls"] == 99


def test_wrappers_reach_from_import_bindings_and_are_removed():
    cf = causalfermion
    bindings = [
        (cf.frontier, "evolve_causal"), (cf.frontier, "boost_values"), (cf.frontier, "time_reverse"),
        (cf.weylradial, "sinc"), (cf.pol, "simpson_weights"), (cf.pol, "cumulative_simpson"),
    ]
    originals = [getattr(mod, name) for mod, name in bindings]
    runner = cf.cli.RUNNERS["evolve"]
    tracer = spans.Tracer(cf)
    tracer.install()
    try:
        for mod, name in bindings:
            assert hasattr(getattr(mod, name), "__wrapped__"), f"{mod.__name__}.{name}"
        assert cf.cli.RUNNERS["evolve"] is not runner
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in bindings] == originals
    assert cf.cli.RUNNERS["evolve"] is runner


@pytest.mark.parametrize("argv, escaped", [
    (["pol", "--set", "k_nodes=512"], "DomainViolation"),
    (["radial", "--set", "nodes=1024"], "OriginSingular"),
    (["cascade", "--set", "n=48", "--set", "seed=1"], "ValueError"),
])
def test_gate_survives_exceptions_escaping_cli_main(argv, escaped, tmp_path):
    rc, _, error = gate.execute(CLI.main, argv, tmp_path)
    assert rc is None and escaped in error


def test_gate_tolerances():
    ref = {"frontier.csv": [["t", "edge_plus_e3"], ["0.5", "1.0"]]}
    within = {"frontier.csv": [["t", "edge_plus_e3"], ["0.5", "1.004"]]}
    beyond = {"frontier.csv": [["t", "edge_plus_e3"], ["0.5", "1.02"]]}
    moved_t = {"frontier.csv": [["t", "edge_plus_e3"], ["0.6", "1.0"]]}
    dx = 24.0 / 4096
    assert gate.compare(within, ref, dx) == []
    assert gate.compare(beyond, ref, dx) != []
    assert gate.compare(moved_t, ref, dx) != []
    assert gate.compare({}, ref, dx) != []
    assert gate.grid_step(["frontier", "--set", "n=4096"], CLI.SCHEMAS) == dx
