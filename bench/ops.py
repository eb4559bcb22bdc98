"""Deterministic op generator for the benchmark workloads.

An op is one CLI experiment: the argv handed to ``causalfermion.cli.main``
(without ``--out``).  A workload is an endless sequence of *blocks*; every
block holds the same multiset of op classes (``BLOCKS``), shuffled by the
workload seed, and each op draws its ``--set`` overrides from the class's
finite variant list (``VARIANTS``), also by the seed.  Because every block has
the same class mix, a run that executes whole blocks measures the same mix of
sizes on every seed, while the seed still changes the inputs and their order.
The variant lists are finite so that ``reference.json`` can hold the expected
CSV output of every op the generator can emit.

The class counts place the median inside one class and the tail percentile
(``TAIL_PERCENTILE``) inside one class, so neither sits on a boundary between
two classes of different cost (see README.md for the shares).
"""

from __future__ import annotations

import random


def _sets(command, **overrides):
    argv = [command]
    for key, val in overrides.items():
        argv += ["--set", f"{key}={val}"]
    return argv


# (bump_center, bump_width, chi): inside the evolve and frontier guards
_BUMPS = [(-1.5, 1.0, 1), (-0.5, 0.8, -1), (0.0, 1.0, 1), (1.0, 1.2, -1), (1.5, 0.8, 1), (0.25, 1.25, -1)]


def _lane(command, log2n, system):
    return [
        _sets(command, n=2**log2n, system=system, bump_center=c, bump_width=w, chi=chi)
        for c, w, chi in _BUMPS
    ]


def _rhos(values):
    return " ".join(f"{v:g}" for v in values)


# rapidity sets; each keeps the boosted strip width (and so the boost work) nearly constant
_BOOST_RHOS = [
    (0.5, 1.0, 2.0), (0.4, 1.1, 1.9), (0.6, 0.9, 2.1),
    (0.5, 1.2, 1.8), (0.45, 1.05, 2.2), (0.55, 0.95, 2.0),
]
# the contraction check applies at rapidity 3
_CONTRACT_RHOS = [
    (0.0, 1.0, 2.0, 3.0), (0.2, 1.1, 1.9, 3.0), (0.1, 0.9, 2.0, 3.0),
    (0.0, 1.2, 2.2, 3.0), (0.3, 0.8, 1.8, 3.0), (0.15, 1.1, 2.0, 3.0),
]

_LANE_CLASSES = {
    f"{cmd}-{system}-2^{k}": _lane(cmd, k, system)
    for cmd, sizes in (("evolve", range(11, 16)), ("frontier", range(11, 15)))
    for k in sizes
    for system in ("dirac", "weyl")
}

VARIANTS = {
    **_LANE_CLASSES,
    # three rapidities for boost and four ending at 3 for contract, as the CLI
    # defaults, so that the boost sum is most of the workload's op time
    **{
        f"boost-2^{k}": [_sets("boost", n=2**k, rhos=_rhos(r)) for r in _BOOST_RHOS]
        for k in (12, 13)
    },
    **{
        f"contract-2^{k}": [_sets("contract", n=2**k, rhos=_rhos(r)) for r in _CONTRACT_RHOS]
        for k in (12, 13)
    },
    "radial": [
        _sets("radial", width=w, chi=chi)
        for w, chi in ((1.5, 1), (1.4, -1), (1.6, 1), (1.3, -1), (1.45, 1), (1.55, -1))
    ],
    # k_nodes = 1024 is the smallest node count whose invariants hold at n = 64
    "pol": [
        _sets("pol", k_nodes=1024, ns="32 64", shell_lo=lo, shell_hi=hi, ball_radius=b)
        for lo, hi, b in (
            (1.0, 2.0, 1.0), (1.1, 1.9, 1.0), (1.05, 1.95, 0.9),
            (0.95, 1.85, 1.1), (1.0, 1.95, 1.1), (1.15, 1.9, 0.9),
        )
    ],
    **{
        f"cascade-{region}-{n}": [
            _sets("cascade", n=n, region=region, seed=s, **{key: v})
            for s, v in zip((1, 2, 3, 4, 5, 6), vals)
        ]
        for n in (16, 32)
        for region, key, vals in (
            ("ball", "ball_radius", (1.0, 1.25, 1.5, 1.0, 1.25, 1.5)),
            ("half_space", "half_space_edge", (0.0, 0.5, -0.5, 0.25, -0.25, 0.0)),
        )
    },
    **{
        f"lines-{target}": [
            _sets("lines", samples=1_000_000, seed=s, target=target) for s in (1, 2, 3, 4, 5, 6)
        ]
        for target in ("4pi2over45", "2pi2over9")
    },
}

# class -> ops per block.  Sorted by op cost, the shares are (see README.md):
#   lane1d:  10 cheap classes | frontier-dirac-2^12 x10 (median) | 6 | frontier-dirac-2^14 x5 (tail)
#   boost1d: boost-2^12 x2 | contract-2^12 x5 (median and tail) | boost-2^13 | contract-2^13
#   radial:  radial x3 (median and tail) | pol
#   grid3d:  cascade 16^3 x4 | lines-4pi2over45 x5 (median) | lines-2pi2over9 | cascade 32^3 x4 (tail)
BLOCKS = {
    "lane1d": {
        **{f"evolve-{s}-2^{k}": 1 for k in (11, 12, 13) for s in ("dirac", "weyl")},
        "evolve-weyl-2^14": 1,
        "frontier-dirac-2^11": 1,
        "frontier-weyl-2^11": 1,
        "frontier-weyl-2^12": 1,
        "frontier-dirac-2^12": 10,
        "frontier-dirac-2^13": 1,
        "frontier-weyl-2^13": 1,
        "evolve-dirac-2^14": 1,
        "evolve-dirac-2^15": 1,
        "evolve-weyl-2^15": 1,
        "frontier-weyl-2^14": 1,
        "frontier-dirac-2^14": 5,
    },
    "boost1d": {"boost-2^12": 2, "contract-2^12": 5, "boost-2^13": 1, "contract-2^13": 1},
    "radial": {"radial": 3, "pol": 1},
    "grid3d": {
        "cascade-ball-16": 2,
        "cascade-half_space-16": 2,
        "lines-4pi2over45": 5,
        "lines-2pi2over9": 1,
        "cascade-ball-32": 2,
        "cascade-half_space-32": 2,
    },
}

# Highest whole percentile with at least 10 ops beyond it, for the op count
# one 25 s run of the workload completed at the commit that set the benchmark
# (lane1d 124, boost1d 18, radial 16, grid3d 56 ops).
TAIL_PERCENTILE = {"lane1d": 91, "boost1d": 44, "radial": 37, "grid3d": 82}


def blocks(workload: str, seed: int):
    """Endless sequence of blocks; each block is a list of (class, argv)."""
    if workload not in BLOCKS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    counts = BLOCKS[workload]
    while True:
        block = [
            (cls, list(rng.choice(VARIANTS[cls])))
            for cls in sorted(counts)
            for _ in range(counts[cls])
        ]
        rng.shuffle(block)
        yield block


def op_list(workload: str, seed: int, n_blocks: int):
    """The first n_blocks blocks of a workload, flattened to (class, argv) pairs."""
    gen = blocks(workload, seed)
    return [op for _ in range(n_blocks) for op in next(gen)]


def op_key(argv) -> str:
    """Reference key of an op: its argv joined by spaces."""
    return " ".join(argv)
