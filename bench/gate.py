"""Run one CLI op in-process and check its CSV output against the reference.

An op fails when ``cli.main`` returns nonzero, when any exception escapes it
(the loop catches and counts it, then goes on), or when a CSV cell leaves its
column's tolerance against ``reference.json``.  Provenance comment lines
(``#``) are not compared: they carry the tool version and config hash.
"""

from __future__ import annotations

import io
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# OpenBLAS threads per process.  One thread gave the steadiest runs on a
# 2-core machine at the same speed as the default (README.md, "Threads").
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_cli():
    """Import causalfermion.cli from this checkout's src/ (numpy follows the BLAS policy)."""
    src = ROOT / "src"
    if not (src / "causalfermion" / "cli.py").is_file():
        raise FileNotFoundError(f"no causalfermion sources under {src}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import causalfermion.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"causalfermion imported from {cli.__file__}, not from {src}")
    return cli


# Allowed |got - ref| <= atol + rtol * |ref| + cells * dx, per CSV column;
# dx is the op's 1D grid step, so a support edge may move by whole cells.
DEFAULT_TOL = (1e-9, 1e-12, 0)
TOL = {
    "evolve.csv": {
        "norm_dev": (0.0, 1e-12, 0),
        "causal_leak": (0.0, 1e-12, 0),
        "nw_leak": (1e-6, 1e-12, 0),
        "edge_plus": (0.0, 1e-9, 1),
        "edge_minus": (0.0, 1e-9, 1),
    },
    "frontier.csv": {
        "edge_plus_e3": (0.0, 1e-9, 1),
        "edge_minus_e3": (0.0, 1e-9, 1),
        "fit_value": (0.0, 1e-9, 1),
        "residual": (0.0, 1e-9, 1),
    },
    "boost.csv": {"strip_hi": (0.0, 1e-9, 1), "p_inside": (0.0, 1e-6, 0)},
    "contract.csv": {"p_strip": (0.0, 1e-6, 0)},
    "radial.csv": dict.fromkeys(
        ("ball_prob", "slab_prob", "normA_plus", "normA_minus", "normR"), (1e-8, 1e-12, 0)
    ),
    "pol.csv": dict.fromkeys(
        ("ball_expectation", "energy_over_n", "negative_fraction"), (1e-6, 1e-9, 0)
    ),
    "cascade_gamma.csv": {"gamma_k": (1e-8, 1e-12, 0)},
    "cascade_levels.csv": dict.fromkeys(("omega_n", "sigma_n"), (1e-8, 1e-12, 0)),
    "cascade_summary.csv": dict.fromkeys(
        ("sigma2", "sigma2_prime", "sigma2_bar", "sigma2_bar_prime", "omega_est"), (1e-8, 1e-12, 0)
    ),
}


def execute(main, argv, out_dir: Path):
    """(exit code or None, seconds, error text or None) of main(argv --out out_dir)."""
    sink = io.StringIO()
    error = None
    rc = None
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = main(list(argv) + ["--out", str(out_dir)])
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - t0
    if rc != 0 and error is None:
        error = f"exit {rc!r}: {sink.getvalue().strip()[-300:]}"
    return rc, elapsed, error


def collect(out_dir: Path) -> dict:
    """{csv name: rows without comment lines}; removes the files it read."""
    files = {}
    for path in sorted(out_dir.glob("*.csv")):
        lines = path.read_text().splitlines()
        files[path.name] = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
        path.unlink()
    return files


def grid_step(argv, schemas) -> float:
    """1D grid step of an op on the 1D lane, else 0 (no cell allowance)."""
    schema = schemas[argv[0]]
    if "n" not in schema or "length" not in schema or argv[0] == "cascade":
        return 0.0
    cfg = {key: typ_default[1] for key, typ_default in schema.items()}
    for item in argv[1:]:
        if "=" in item:
            key, val = item.split("=", 1)
            cfg[key] = val
    return float(cfg["length"]) / int(cfg["n"])


def compare(files: dict, ref: dict, dx: float) -> list:
    """Mismatch descriptions between an op's CSV rows and its reference rows."""
    problems = []
    if sorted(files) != sorted(ref):
        return [f"files {sorted(files)} != reference {sorted(ref)}"]
    for name, rows in files.items():
        want = ref[name]
        if len(rows) != len(want) or rows[:1] != want[:1]:
            problems.append(f"{name}: shape or header differs from reference")
            continue
        header = want[0]
        tols = TOL.get(name, {})
        for i, (got_row, ref_row) in enumerate(zip(rows[1:], want[1:]), start=1):
            for col, got, exp in zip(header, got_row, ref_row):
                if got == exp:
                    continue
                try:
                    g, e = float(got), float(exp)
                except ValueError:
                    problems.append(f"{name} row {i} {col}: {got!r} != {exp!r}")
                    continue
                rtol, atol, cells = tols.get(col, DEFAULT_TOL)
                if not abs(g - e) <= atol + rtol * abs(e) + cells * dx:
                    problems.append(f"{name} row {i} {col}: {got} vs reference {exp}")
    return problems
