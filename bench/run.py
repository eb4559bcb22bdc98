"""Benchmark of the causalfermion CLI: seeded closed loops of CLI experiments.

    python3 bench/run.py --workload lane1d --seed 1 --seconds 28 --trace 0

One client, one process: each op is one ``causalfermion.cli.main(argv)`` call
made in-process, the next op starts when the previous one has returned and
been checked against ``reference.json``.  The loop runs whole blocks of ops
(see ops.py) until ``--seconds`` is used up.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same blocks untraced and then
traced, prints the per-layer metrics and the tracing overhead, and writes the
spans to ``bench/traces/``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import ops  # noqa: E402

SETUP_REPEATS = 16
UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "fail_frac": "fraction",
    "peak_rss_mb": "MB",
}
# fail_frac is 0 at the commit that set the benchmark, so it is printed but not
# reported as a metric; attempted and failed carry it.
END_TO_END = [name for name in UNITS if name != "fail_frac"]

# What one fresh process does before its first op: start the interpreter,
# import numpy and causalfermion, load the reference outputs, make the op list.
_SETUP_CODE = """
import json, sys
sys.path.insert(0, {bench!r})
import gate, ops
gate.load_cli()
json.loads(gate.REFERENCE.read_text())
ops.op_list({workload!r}, {seed!r}, 8)
"""


def setup_seconds(workload: str, seed: int, repeats: int) -> list:
    """Wall time of `repeats` fresh processes doing the benchmark's set-up."""
    code = _SETUP_CODE.format(bench=str(BENCH), workload=workload, seed=seed)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms, which would quantize the time
        subprocess.run([sys.executable, "-c", code], check=True, cwd=gate.ROOT)
        times.append(time.perf_counter() - t0)
    return times


class Loop:
    """Closed loop over blocks of ops; every op is timed and gated."""

    def __init__(self, cli, reference: dict, work: Path):
        self.cli = cli
        self.reference = reference
        self.work = work
        self.tracer = None
        self.records = []  # (class, seconds, error or None)

    def run_op(self, cls: str, argv) -> None:
        op_id = len(self.records)
        if self.tracer is not None:
            self.tracer.begin_op(op_id)
        # cli.main is looked up per op so that a traced run calls the wrapper
        rc, seconds, error = gate.execute(lambda a: self.cli.main(a), argv, self.work)
        files = gate.collect(self.work)
        if error is None:
            ref = self.reference.get(ops.op_key(argv))
            if ref is None:
                error = "no reference output for this op"
            else:
                problems = gate.compare(files, ref, gate.grid_step(argv, self.cli.SCHEMAS))
                if problems:
                    error = "; ".join(problems[:5])
        self.records.append((cls, seconds, error))

    def run_blocks(self, blocks, seconds: float | None = None, count: int | None = None):
        """Run whole blocks: `count` of them, or while time is left for about half a block more."""
        done = []
        t0 = time.perf_counter()
        for block in blocks:
            elapsed = time.perf_counter() - t0
            if count is not None and len(done) == count:
                break
            if count is None and done and elapsed + 0.5 * elapsed / len(done) >= seconds:
                break
            for cls, argv in block:
                self.run_op(cls, argv)
            done.append(block)
        return done, time.perf_counter() - t0


def git_commit() -> str:
    if not (gate.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(
        ["git", "-C", str(gate.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return res.stdout.strip() or "unknown"


def metadata(args, numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process, in-process cli.main",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in gate.BLAS_VARS},
        "commit": git_commit(),
    }


def summary(records, wall: float, percentile: int) -> dict:
    times = sorted(sec for _, sec, _ in records)
    failed = sum(1 for *_, err in records if err is not None)
    rank = max(1, math.ceil(percentile / 100.0 * len(times)))  # nearest rank
    return {
        "op_s_p50": statistics.median(times),
        "op_s_tail": times[rank - 1],
        "ops_per_s": len(records) / wall,
        "fail_frac": failed / len(records),
        "tail_percentile": percentile,
        "ops_beyond_tail": len(times) - rank,
        "attempted": len(records),
        "failed": failed,
    }


def report_ops(records) -> None:
    """Failed ops with their errors, and the median time of each op class."""
    by_class = {}
    for i, (cls, sec, err) in enumerate(records):
        by_class.setdefault(cls, []).append(sec)
        if err is not None:
            print(f"# op {i} ({cls}) failed: {err}")
    for cls, times in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"# class {cls:24s} {len(times):4d} ops  median {statistics.median(times):.4f} s")


def timed_run(args, loop: Loop) -> dict:
    # half of the set-ups before the loop and half after it: the host's speed
    # drifts in phases of seconds, and one batch would sample only one phase
    setups = setup_seconds(args.workload, args.seed, SETUP_REPEATS // 2)
    blocks, wall = loop.run_blocks(ops.blocks(args.workload, args.seed), seconds=args.seconds)
    setups += setup_seconds(args.workload, args.seed, SETUP_REPEATS // 2)
    s = summary(loop.records, wall, ops.TAIL_PERCENTILE[args.workload])
    s.update(
        # lower quartile: host noise only adds time to a set-up
        setup_s=statistics.quantiles(setups, n=4)[0],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        blocks=len(blocks),
        setup_runs_s=setups,
    )
    print(f"# {len(blocks)} blocks, {s['attempted']} ops, {wall:.3f} s loop wall time")
    report_ops(loop.records)
    for name, u in UNITS.items():
        note = ""
        if name == "op_s_tail":
            note = f"  (p{s['tail_percentile']}, {s['ops_beyond_tail']} of {s['attempted']} ops beyond)"
        if name == "fail_frac":
            note = f"  ({s['failed']} of {s['attempted']})"
        print(f"{name:12s} {s[name]:.6g} {u}{note}")
    metrics = {name: {"value": s[name], "unit": UNITS[name]} for name in END_TO_END}
    return {"summary": s, "metrics": metrics}


def traced_run(args, loop: Loop, cf) -> dict:
    import spans  # imports numpy, so only after gate.load_cli has set the BLAS threads

    blocks, wall_plain = loop.run_blocks(ops.blocks(args.workload, args.seed), seconds=args.seconds / 2.0)
    n_plain = len(loop.records)
    tracer = spans.Tracer(cf)
    loop.tracer = tracer
    tracer.install()
    try:
        _, wall_traced = loop.run_blocks(iter(blocks), count=len(blocks))
    finally:
        tracer.uninstall()
        loop.tracer = None
    n_traced = len(loop.records) - n_plain
    layer = tracer.metrics(n_traced)
    plain_rate, traced_rate = n_plain / wall_plain, n_traced / wall_traced
    layer["trace.untraced_ops_per_s"] = plain_rate
    layer["trace.traced_ops_per_s"] = traced_rate
    layer["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    out_dir = BENCH / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                "spans": tracer.spans}))
    print(f"# {len(blocks)} blocks untraced then traced, {n_traced} traced ops, spans in {path}")
    report_ops(loop.records)
    for name, value in layer.items():
        print(f"{name:48s} {value:.6g} {spans.unit(name)}")
    s = summary(loop.records, wall_plain + wall_traced, ops.TAIL_PERCENTILE[args.workload])
    metrics = {name: {"value": value, "unit": spans.unit(name)} for name, value in layer.items()}
    return {"summary": s, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = gate.load_cli()
        reference = json.loads(gate.REFERENCE.read_text())
    except (OSError, ImportError, ValueError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    import causalfermion
    import numpy

    print("# meta " + json.dumps(metadata(args, numpy)))
    work = BENCH / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        loop = Loop(cli, reference, work)
        result = traced_run(args, loop, causalfermion) if args.trace else timed_run(args, loop)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    s = result["summary"]
    print("# summary " + json.dumps({k: v for k, v in s.items() if k not in ("op_s_p50", "op_s_tail")}))
    print(json.dumps({
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
