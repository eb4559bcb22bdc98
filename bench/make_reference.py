"""Regenerate reference.json: the CSV output of every op the generator can emit.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are known good; the benchmark's
correctness gate compares every later run against this file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
import ops


def main() -> int:
    cli = gate.load_cli()
    reference, failures = {}, []
    with tempfile.TemporaryDirectory(dir=gate.ROOT / "bench") as tmp:
        out = Path(tmp)
        for cls in sorted({c for counts in ops.BLOCKS.values() for c in counts}):
            for argv in ops.VARIANTS[cls]:
                rc, seconds, error = gate.execute(cli.main, argv, out)
                files = gate.collect(out)
                key = ops.op_key(argv)
                print(f"{seconds:7.3f} s  rc={rc}  {key}", flush=True)
                if error:
                    failures.append(f"{key}: {error}")
                    continue
                reference[key] = files
    if failures:
        print("ops that fail at this commit:", *failures, sep="\n", file=sys.stderr)
        return 1
    gate.REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {len(reference)} references to {gate.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
