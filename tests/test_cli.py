import numpy as np
import pytest

from causalfermion import cli, dynamics as dyn
from causalfermion.errors import ConfigError, InvariantFailure

#: the per-command (type, default) literal that cli.KEYS replaced; the defaults reach the CSV comments
#: and the config hash, so the table must reproduce each one with the same type and repr
FROZEN_SCHEMAS = {
    "evolve": {
        "n": (int, 2048), "length": (float, 16.0), "system": (str, "dirac"), "mass": (float, 1.0),
        "chi": (int, 1), "bump_center": (float, 0.0), "bump_width": (float, 1.0),
        "times": (list, [0.5, 1.0, 2.0]), "edge_tau": (float, 1e-6),
    },
    "frontier": {
        "n": (int, 4096), "length": (float, 24.0), "system": (str, "dirac"), "mass": (float, 1.0),
        "chi": (int, 1), "bump_center": (float, 0.0), "bump_width": (float, 1.0), "n_times": (int, 17),
        "edge_tau": (float, 1e-6),
    },
    "boost": {
        "n": (int, 8192), "length": (float, 14.0), "mass": (float, 1.0), "rhos": (list, [0.5, 1.0, 2.0]),
        "target_t": (float, 1.5), "window": (float, 0.3), "edge_tau": (float, 1e-6),
    },
    "contract": {
        "n": (int, 8192), "length": (float, 14.0), "mass": (float, 1.0), "delta": (float, 0.1),
        "rhos": (list, [0.0, 1.0, 2.0, 3.0]), "target_t": (float, 1.5), "window": (float, 0.3),
    },
    "radial": {
        "nodes": (int, 4096), "r_max": (float, 2.0), "chi": (int, 1), "width": (float, 1.5),
        "times": (list, [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]),
    },
    "pol": {
        "k_max": (float, 140.0), "k_nodes": (int, 8192), "mass": (float, 1.0), "shell_lo": (float, 1.0),
        "shell_hi": (float, 2.0), "ns": (list, [1, 2, 4, 8, 16, 32, 64]), "ball_radius": (float, 1.0),
    },
    "cascade": {
        "n": (int, 32), "length": (float, 8.0), "mass": (float, 1.0), "depth": (int, 8),
        "region": (str, "ball"), "ball_radius": (float, 1.0), "half_space_edge": (float, 0.0),
        "seed": (int, None),
    },
    "lattice": {},
    "lines": {
        "samples": (int, 10_000_000), "seed": (int, None), "target": (str, "4pi2over45"), "strata": (int, 16),
    },
    "selftest": {},
}


class TestConfigParsing:
    def test_key_value_lines(self):
        cfg = cli.parse_config_text("n = 128\n# comment\nlength = 8.0  # inline\n")
        assert cfg == {"n": "128", "length": "8.0"}

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("just words\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("frontier", None, ["bogus=1"])

    def test_defaults_filled(self):
        cfg = cli.resolve_config("frontier", None, ["n=512"])
        assert cfg["n"] == 512
        assert cfg["length"] == 24.0

    def test_list_values(self):
        cfg = cli.resolve_config("contract", None, ["rhos=0.5 1.0 2.0"])
        assert cfg["rhos"] == [0.5, 1.0, 2.0]

    def test_seed_required_for_stochastic(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("lines", None, None)

    def test_config_hash_stable(self):
        a = cli.resolve_config("frontier", None, ["n=512"])
        b = cli.resolve_config("frontier", None, ["n=512"])
        assert cli.config_hash(a) == cli.config_hash(b)

    def test_schemas_view_matches_frozen_literal(self):
        assert cli.SCHEMAS == FROZEN_SCHEMAS
        for command, schema in FROZEN_SCHEMAS.items():
            for key, (typ, default) in schema.items():
                got_typ, got_default = cli.SCHEMAS[command][key]
                assert got_typ is typ and repr(got_default) == repr(default), (command, key)

    def test_required_keys_are_the_seeds(self):
        required = {(cmd, key) for cmd, schema in cli.SCHEMAS.items() for key, (_, d) in schema.items() if d is None}
        assert required == {("cascade", "seed"), ("lines", "seed")}

    def test_leak_sampling_rule_is_evolves_alone(self):
        # run_evolve is the runner that compares its causal leak against EPS_LEAK, so only evolve's length
        # must give fd.LEAK_SAMPLES samples across the bump; a command that gains a bump and times fails here
        assert [c for c, schema in cli.SCHEMAS.items() if cli._checks_leak(schema)] == ["evolve"]

    @pytest.mark.parametrize("command", sorted(cli.SCHEMAS))
    def test_checks_read_only_keys_above_their_own(self, command):
        # the defaults pass every check, and each check gives the same verdict when it sees only the
        # keys whose rows come before its own: a check that read a later key would fail here
        cfg = cli.resolve_config(command, None, ["seed=1"] if "seed" in cli.SCHEMAS[command] else None)
        seen = {}
        for key, (_, ok, _, defaults) in cli.KEYS.items():
            if command in defaults:
                seen[key] = cfg[key]
                assert ok(cfg[key], dict(seen)), key

    @pytest.mark.parametrize(
        "command, sets",
        [
            ("evolve", ["n=1048576"]),
            ("cascade", ["n=64", "seed=1"]),
            ("radial", ["nodes=1048576"]),
            ("pol", ["k_nodes=1048576"]),
            ("frontier", ["n_times=1048576"]),
            ("lines", ["samples=1073741824", "strata=1024", "seed=1"]),
        ],
        ids=["n_1d", "n_3d", "nodes", "k_nodes", "n_times", "samples"],
    )
    def test_size_at_cap_accepted(self, command, sets):
        # checked through resolve_config only: no run allocates a size this large
        cli.resolve_config(command, None, sets)

    @pytest.mark.parametrize(
        "command, sets, key",
        [
            ("evolve", ["n=2097152"], "n"),
            ("boost", [f"n={2**30}"], "n"),
            ("cascade", ["n=128", "seed=1"], "n"),
            ("radial", ["nodes=1048578"], "nodes"),
            ("pol", ["k_nodes=1048578"], "k_nodes"),
            ("frontier", ["n_times=1048577"], "n_times"),
            ("lines", ["samples=1073741825", "strata=1025", "seed=1"], "samples"),
            ("lines", ["samples=2097152", "strata=1", "seed=1"], "strata"),
        ],
        ids=["n_1d", "n_2_pow_30", "n_3d", "nodes", "k_nodes", "n_times", "samples", "rows_per_shard"],
    )
    def test_size_above_cap_rejected(self, command, sets, key):
        with pytest.raises(ConfigError, match=f"^key {key!r}"):
            cli.resolve_config(command, None, sets)


class TestExitCodes:
    def test_unknown_key_exit_2(self, tmp_path):
        rc = cli.main(["frontier", "--out", str(tmp_path), "--set", "bogus=1"])
        assert rc == cli.EXIT_CONFIG

    def test_config_file_unknown_key_exit_2(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("mystery = 12\n")
        rc = cli.main(["frontier", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG

    def test_invariant_failure_exit_1(self, tmp_path, monkeypatch):
        from causalfermion.errors import InvariantFailure

        def boom(cfg, out):
            raise InvariantFailure("forced")

        monkeypatch.setitem(cli.RUNNERS, "lattice", boom)
        rc = cli.main(["lattice", "--out", str(tmp_path)])
        assert rc == cli.EXIT_INVARIANT

    def test_guard_violation_exit_3(self, tmp_path):
        rc = cli.main(
            [
                "evolve",
                "--out",
                str(tmp_path),
                "--set", "n=512",
                "--set", "length=8.0",
                "--set", "times=10.0",
            ]
        )
        assert rc == cli.EXIT_GUARD


class TestFailFast:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--set", "n=1000"],
            ["cascade", "--set", "n=48", "--set", "seed=1"],
            ["evolve", "--set", "system=weil"],
            ["cascade", "--set", "depth=20", "--set", "seed=1"],
            ["radial", "--set", "nodes=3"],
            ["radial", "--set", "nodes=4095"],
            ["evolve", "--set", "bump_width=-1"],
            ["evolve", "--set", "bump_width=0"],
            ["evolve", "--set", "mass=-1"],
            ["lines", "--set", "samples=10", "--set", "seed=1"],
            ["lines", "--set", "strata=0", "--set", "seed=1"],
            ["pol", "--set", "k_nodes=1023"],
            ["cascade", "--set", "seed=1", "--set", "ball_radius=-1"],
            ["pol", "--set", "ball_radius=-1"],
            ["evolve", "--set", "length=-16"],
            ["evolve", "--set", "length=nan"],
            ["pol", "--set", "k_nodes=2", "--set", "ns=1"],
            ["pol", "--set", "shell_lo=2", "--set", "shell_hi=1"],
            ["radial", "--set", "r_max=-2"],
            ["frontier", "--set", "n_times=1"],
            ["frontier", "--set", "n_times=4"],
            ["boost", "--set", "window=-1"],
            ["contract", "--set", "window=-1"],
            ["evolve", "--set", "mass=inf"],
            ["cascade", "--set", "seed=1", "--set", "ball_radius=inf"],
            ["evolve", "--set", "bump_width=inf"],
            ["evolve", "--set", "times="],
            ["pol", "--set", "ns="],
            ["pol", "--set", "ns=0.5 64"],
            ["evolve", "--set", "times=nan"],
            ["frontier", "--set", "edge_tau=0.5"],
            ["frontier", "--set", "edge_tau=0"],
            ["radial", "--set", "chi=0"],
            ["evolve", "--set", "system=weyl", "--set", "chi=3"],
            ["contract", "--set", "delta=-0.1"],
            ["radial", "--set", "width=-1"],
            ["boost", "--set", "rhos=nan"],
            ["cascade", "--set", "seed=-1"],
            ["lines", "--set", "seed=-1"],
            ["lines", "--set", f"seed={2**128}"],
            ["cascade", "--set", "seed=1", "--set", "region=cube"],
            ["lines", "--set", "seed=1", "--set", "target=pi"],
            ["radial", "--set", "times=1e300"],
            ["radial", "--set", "r_max=1e300"],
            ["pol", "--set", "shell_lo=0"],
            ["pol", "--set", "ns=1e300"],
            ["cascade", "--set", "seed=1", "--set", "ball_radius=7"],
            ["cascade", "--set", "seed=1", "--set", "region=half_space", "--set", "half_space_edge=3.75"],
            ["cascade", "--set", "seed=1", "--set", "mass=13"],
            ["contract", "--set", "rhos=1e300"],
        ],
        ids=[
            "n_not_power_of_two", "cascade_n_48", "system_typo", "depth_above_cap",
            "radial_nodes_3", "radial_nodes_odd", "negative_bump_width", "zero_bump_width",
            "negative_mass", "samples_below_strata", "zero_strata", "pol_k_nodes_odd",
            "cascade_negative_ball_radius", "pol_negative_ball_radius", "negative_length",
            "nan_length", "pol_empty_shell", "pol_shell_reversed", "radial_negative_r_max",
            "frontier_one_time", "frontier_four_times", "boost_negative_window",
            "contract_negative_window", "infinite_mass", "cascade_infinite_ball_radius",
            "infinite_bump_width", "evolve_empty_times", "pol_empty_ns", "pol_ns_below_1",
            "evolve_nan_time", "frontier_edge_tau_above_1e-2", "frontier_zero_edge_tau",
            "radial_chi_0", "weyl_chi_3", "contract_negative_delta", "radial_negative_width",
            "boost_nan_rho", "cascade_negative_seed", "lines_negative_seed", "lines_seed_2_pow_128",
            "cascade_unknown_region", "lines_unknown_target", "radial_huge_time", "radial_huge_r_max",
            "pol_zero_shell_lo", "pol_huge_ns", "cascade_ball_holds_every_site",
            "cascade_half_space_past_last_site", "cascade_mass_above_band_edge", "contract_huge_rho",
        ],
    )
    def test_bad_value_exit_2_one_line(self, argv, tmp_path, capsys):
        rc = cli.main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_bad_target_t_is_named(self, value, tmp_path, capsys):
        # a seed fitted from a bad target_t would otherwise be blamed on 'window'
        rc = cli.main(["boost", "--set", f"target_t={value}", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert err.startswith("config error: key 'target_t'") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["evolve", "--set", "bump_center=nan"], "bump_center"),
            (["cascade", "--set", "seed=1", "--set", "region=half_space", "--set", "half_space_edge=nan"],
             "half_space_edge"),
            (["pol", "--set", "k_max=-1"], "k_max"),
            (["pol", "--set", "k_max=nan"], "k_max"),
            (["lines", "--set", "samples=0", "--set", "seed=1"], "samples"),
            (["pol", "--set", "shell_lo=nan"], "shell_lo"),
            (["pol", "--set", "shell_hi=inf"], "shell_hi"),
            (["evolve", "--set", "length=1e300"], "length"),
            (["cascade", "--set", "seed=1", "--set", "length=1e300"], "length"),
            (["frontier", "--set", "mass=1e300"], "mass"),
            # EPS_LEAK holds from 84 samples across the bump: 2 bump_width n / length = 2.048 and 83.2
            (["evolve", "--set", "n=1024", "--set", "length=1000"], "length"),
            (["evolve", "--set", "n=512", "--set", "bump_width=1.3"], "length"),
        ],
        ids=["bump_center", "half_space_edge", "negative_k_max", "nan_k_max", "zero_samples", "nan_shell_lo",
             "infinite_shell_hi", "evolve_huge_length", "cascade_huge_length", "frontier_huge_mass",
             "evolve_undersampled_bump", "evolve_83_samples_across_bump"],
    )
    def test_bad_value_names_its_key(self, argv, key, tmp_path, capsys):
        # k_max, samples, shell_lo and length are read by later checks, which must not take the blame
        rc = cli.main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert err.startswith(f"config error: key {key!r}") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["boost", "contract"])
    def test_window_beyond_fitted_t_eb_exit_2(self, command, tmp_path, capsys):
        # t_eb is fitted from the seed (about target_t = 1.5), so window = 2 passes the window check
        rc = cli.main([command, "--set", "window=2", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'window'" in err and "t_eb" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())


#: a small config per command that exits 0 by itself; cascade once per region
SWEEP_BASES = [
    ["evolve", "n=1024"],
    ["frontier", "n=1024", "length=16.0", "bump_width=0.8", "n_times=9"],
    ["boost", "n=4096"],
    ["contract", "n=2048"],
    ["radial", "nodes=2048", "times=0.5 1.0"],
    ["pol", "k_nodes=1024", "ns=32 64"],
    ["cascade", "n=16", "depth=3", "seed=7"],
    ["cascade", "n=16", "depth=3", "seed=7", "region=half_space"],
    ["lines", "samples=20000", "seed=1"],
]


def _run_sets(base, sets, out):
    """cli.main on base[0] with --set for each key=value, plus the exit code and any non-finite CSV cell."""
    rc = cli.main([base[0], *[a for kv in sets for a in ("--set", kv)], "--out", str(out)])
    bad = []
    for path in sorted(out.glob("*.csv")) if out.exists() else ():
        for line in path.read_text().splitlines():
            if not line.startswith("#"):
                for cell in line.split(","):
                    try:
                        if not np.isfinite(float(cell)):
                            bad.append(f"{path.name}: {line}")
                    except ValueError:
                        pass
    return rc, bad


class TestSweep:
    """One key at a time set to nan, +-inf, -1, 0 or 1e300 on a small base config.

    This is a robustness sweep, not an accuracy test: the base configs are smaller than the defaults
    that the acceptance tests pin.  An int key does not parse 1e300, so no huge size is ever run.
    """

    @pytest.mark.parametrize("base", SWEEP_BASES, ids=[" ".join(b) for b in SWEEP_BASES])
    def test_base_exits_0(self, base, tmp_path):
        assert _run_sets(base, base[1:], tmp_path) == (cli.EXIT_OK, [])

    @pytest.mark.parametrize(
        "base, key",
        [(b, key) for b in SWEEP_BASES for key in cli.SCHEMAS[b[0]]],
        ids=[f"{' '.join(b)}: {key}" for b in SWEEP_BASES for key in cli.SCHEMAS[b[0]]],
    )
    def test_extreme_values_exit_0_2_or_3(self, base, key, tmp_path, capsys):
        # an exception escaping cli.main fails the test as an error
        for value in ("nan", "inf", "-inf", "-1", "0", "1e300"):
            sets = [kv for kv in base[1:] if kv.split("=")[0] != key] + [f"{key}={value}"]
            rc, bad = _run_sets(base, sets, tmp_path / value)
            err = capsys.readouterr().err
            assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_GUARD), (value, err)
            assert rc != cli.EXIT_OK or not bad, (value, bad)


class TestArtifacts:
    def test_frontier_run_and_reproducibility(self, tmp_path):
        args = [
            "frontier",
            "--set", "n=1024",
            "--set", "length=16.0",
            "--set", "bump_width=0.8",
            "--set", "n_times=9",
        ]
        rc = cli.main(args + ["--out", str(tmp_path / "a")])
        assert rc == cli.EXIT_OK
        rc = cli.main(args + ["--out", str(tmp_path / "b")])
        assert rc == cli.EXIT_OK
        a = (tmp_path / "a" / "frontier.csv").read_bytes()
        b = (tmp_path / "b" / "frontier.csv").read_bytes()
        assert a == b
        text = a.decode()
        assert text.startswith("# causalfermion")
        assert "# config " in text
        assert "\r\n" in text

    def test_lines_run(self, tmp_path):
        rc = cli.main(
            [
                "lines",
                "--out", str(tmp_path),
                "--set", "samples=100000",
                "--set", "seed=42",
            ]
        )
        assert rc == cli.EXIT_OK
        text = (tmp_path / "lines.csv").read_text()
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "experiment,N,estimate,stderr,target,z_score"
        fields = rows[1].split(",")
        assert abs(float(fields[5])) <= 3.0

    def test_lattice_run(self, tmp_path):
        rc = cli.main(["lattice", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        text = (tmp_path / "lattice.csv").read_text()
        assert "orthomodularity_failure,1" in text

    def test_evolve_run(self, tmp_path):
        rc = cli.main(
            [
                "evolve",
                "--out", str(tmp_path),
                "--set", "n=1024",
                "--set", "length=16.0",
                "--set", "times=0.5 1.0",
            ]
        )
        assert rc == cli.EXIT_OK
        assert (tmp_path / "evolve.csv").exists()

    def test_default_evolve_evolves_once_per_time(self, tmp_path, monkeypatch):
        # newton_wigner_leak returns the causal evolution it reads the leak from, and evolve reuses it
        calls = []
        evolve = dyn.evolve_causal
        monkeypatch.setattr(dyn, "evolve_causal", lambda field, t: calls.append(t) or evolve(field, t))
        assert cli.main(["evolve", "--out", str(tmp_path)]) == cli.EXIT_OK
        assert calls == cli.SCHEMAS["evolve"]["times"][1]

    @pytest.mark.parametrize("system", [["system=dirac"], ["system=weyl", "chi=1"], ["system=weyl", "chi=-1"]],
                             ids=["dirac", "weyl+", "weyl-"])
    @pytest.mark.parametrize("center", [0.0, 1.0 / 64.0], ids=["on-node", "half-cell"])
    def test_evolve_leak_budget_at_minimum_sampling(self, system, center, tmp_path):
        # EPS_LEAK holds from 84 samples across the bump (2 width / dx >= 84): dx = 16/512,
        # width = 84 dx / 2; evolve exits 1 ("causal leak above budget") if any time leaks more
        sets = ["n=512", "length=16.0", "bump_width=1.3125", f"bump_center={center}", *system]
        rc = cli.main(["evolve", "--out", str(tmp_path), *[a for kv in sets for a in ("--set", kv)]])
        assert rc == cli.EXIT_OK

    def test_cascade_run(self, tmp_path):
        rc = cli.main(
            [
                "cascade",
                "--out", str(tmp_path),
                "--set", "n=16",
                "--set", "length=8.0",
                "--set", "depth=3",
                "--set", "seed=7",
            ]
        )
        assert rc == cli.EXIT_OK
        for name in ("cascade_gamma.csv", "cascade_levels.csv", "cascade_summary.csv"):
            assert (tmp_path / name).exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_csv_rejects_non_finite_floats(self, value, tmp_path):
        writer = cli.CsvWriter(tmp_path / "x.csv", {"a": 1})
        writer.header("v")
        with pytest.raises(InvariantFailure, match="non-finite"):
            writer.row(1.0, value)

    def test_csv_17_digit_floats(self, tmp_path):
        writer = cli.CsvWriter(tmp_path / "x.csv", {"a": 1})
        writer.header("v")
        writer.row(1.0 / 3.0)
        writer.write()
        content = (tmp_path / "x.csv").read_text()
        assert "0.33333333333333331" in content
