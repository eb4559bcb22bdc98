import numpy as np
import pytest

from causalfermion import cli
from causalfermion.errors import ConfigError


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
                "--set", "n=256",
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
        ],
        ids=["bump_center", "half_space_edge", "negative_k_max", "nan_k_max", "zero_samples"],
    )
    def test_bad_value_names_its_key(self, argv, key, tmp_path, capsys):
        # k_max and samples are read by the shell_hi and strata checks, which must not take the blame
        rc = cli.main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert err.startswith(f"config error: key {key!r}") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["boost", "contract"])
    def test_window_beyond_fitted_t_eb_exit_2(self, command, tmp_path, capsys):
        # t_eb is fitted from the seed (about target_t = 1.5), so window = 2 passes CHECKS
        rc = cli.main([command, "--set", "window=2", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'window'" in err and "t_eb" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())


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

    def test_csv_17_digit_floats(self, tmp_path):
        writer = cli.CsvWriter(tmp_path / "x.csv", {"a": 1})
        writer.header("v")
        writer.row(1.0 / 3.0)
        writer.write()
        content = (tmp_path / "x.csv").read_text()
        assert "0.33333333333333331" in content
