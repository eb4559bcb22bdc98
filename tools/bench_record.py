"""Record the benchmark's end-to-end metrics for one or more source trees into a BENCH_<n>.json file.

    python3 tools/bench_record.py --tree parent=../parent --tree change=. --runs 5 --seed 1 --out BENCH_31.json

Each run calls ``bench/run.py --workload W --seed S --seconds T --trace 0`` of a tree as a subprocess,
from that tree's root, and reads the JSON object on the run's last line; the workloads and T come
from the first tree's BENCHMARK.json.  For every run index and workload, each tree runs once, and
which tree goes first rotates from one index to the next.  The host's load average is read at the
start of every run.  Then, per tree, the file records each CLI command's best wall time of 3 fresh
processes at its default config (``cascade`` and ``lines`` with seed=1), alternating the trees, and
the wall time of the Tier-1 suite.  Every subprocess runs with one BLAS thread.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {"evolve": [], "frontier": [], "boost": [], "contract": [], "radial": [], "pol": [],
            "cascade": ["--set", "seed=1"], "lattice": [], "lines": ["--set", "seed=1"], "selftest": []}
BLAS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _env(tree: Path) -> dict:
    return {**os.environ, **BLAS, "PYTHONPATH": str(tree / "src")}


def _git(tree: Path, *args) -> str:
    res = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _source_digest(tree: Path) -> str:
    """sha256 over the package's .py files, names and bytes: which code ran, committed or not."""
    h = hashlib.sha256()
    for path in sorted((tree / "src" / "causalfermion").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its metadata line, its result line, the load average at its start, its wall time."""
    load = os.getloadavg()
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, env=_env(tree), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited {res.returncode}: {res.stderr.strip()[-500:]}")
    lines = res.stdout.strip().splitlines()
    meta = next(json.loads(ln[len("# meta "):]) for ln in lines if ln.startswith("# meta "))
    return {"meta": meta, "result": json.loads(lines[-1]), "load_avg": list(load), "wall_s": wall}


def cli_seconds(tree: Path, command: str, out: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "causalfermion.cli", command, *COMMANDS[command], "--out", str(out)],
                   cwd=out, env=_env(tree), check=True, capture_output=True)
    return time.perf_counter() - t0


def tier1(tree: Path) -> dict:
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"], cwd=tree, env=_env(tree), capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - t0, "exit": res.returncode, "summary": res.stdout.strip().splitlines()[-1]}


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {label: Path(path).resolve() for label, path in (t.split("=", 1) for t in args.tree)}
    spec = json.loads((next(iter(trees.values())) / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    labels = list(trees)

    runs = []
    for i in range(args.runs):
        order = labels[i % len(labels):] + labels[: i % len(labels)]
        for workload in workloads:
            for label in order:
                run = bench_run(trees[label], workload, args.seed, spec["run_seconds"])
                runs.append({"tree": label, "workload": workload, "index": i, **run})
                m = run["result"]["metrics"]
                print(f"run {i} {workload:8s} {label:8s} load {run['load_avg'][0]:.2f}  "
                      + "  ".join(f"{k} {v['value']:.4g}" for k, v in m.items()), flush=True)

    cli = {label: {} for label in labels}
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            for rep in range(3):
                for label in labels if rep % 2 == 0 else labels[::-1]:
                    out = Path(tmp) / label / command
                    out.mkdir(parents=True, exist_ok=True)
                    cli[label].setdefault(command, []).append(cli_seconds(trees[label], command, out))

    record = {
        "command": f"bench/run.py --workload W --seed {args.seed} --seconds {spec['run_seconds']} --trace 0",
        "order": "per run index and workload, each tree once; the first tree rotates with the index",
        "blas_threads": 1,
        "host": {k: runs[0]["meta"][k] for k in ("nproc", "cpus_usable", "python", "numpy", "blas")},
        "trees": {label: {"rev": _git(tree, "describe", "--always", "--dirty", "--abbrev=12"),
                          "src_sha256": _source_digest(tree)} for label, tree in trees.items()},
        "workloads": {},
        "cli_best_of_3_s": {label: {c: min(ts) for c, ts in cmds.items()} for label, cmds in cli.items()},
        "tier1": {label: tier1(tree) for label, tree in trees.items()},
        "runs": [{k: r[k] for k in ("tree", "workload", "index", "load_avg", "wall_s", "result")} for r in runs],
    }
    for workload in workloads:
        record["workloads"][workload] = {}
        for label in labels:
            mine = [r["result"] for r in runs if r["workload"] == workload and r["tree"] == label]
            record["workloads"][workload][label] = {
                "attempted": [r["attempted"] for r in mine],
                "failed": [r["failed"] for r in mine],
                "load_avg_1m_at_start": [r["load_avg"][0] for r in runs
                                         if r["workload"] == workload and r["tree"] == label],
                "metrics": {name: {"unit": mine[0]["metrics"][name]["unit"],
                                   **quartiles([r["metrics"][name]["value"] for r in mine])}
                            for name in mine[0]["metrics"]},
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
