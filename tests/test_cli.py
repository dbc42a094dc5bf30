import json
import warnings

import pytest

from qimeter import acceptance
from qimeter.cli import main
from qimeter.harness import read_results

GRID = "0:1.5707963267948966:3"


class TestSweepCommands:
    def test_grover_systematic_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            ["grover-systematic", "--n", "3", "--alpha", "2", "--grid", GRID,
             "--out", str(out)]
        )
        assert code == 0
        rows = read_results(out, "csv")
        assert len(rows) == 3
        assert abs(rows[1].sweep_value - 0.7853981633974483) < 1e-12
        assert rows[1].success > 0.9

    def test_grover_systematic_n10_digits_are_true(self, tmp_path):
        # I_au at theta = 0.3 is 0.669311525908397 to 15 digits (the 50-digit
        # oracle); the stacked gate pass wrote 0.669311525999
        out = tmp_path / "rows.csv"
        argv = ["grover-systematic", "--n", "10", "--alpha", "2", "--grid", "0.3:1.2:2"]
        assert main(argv + ["--out", str(out)]) == 0
        first = out.read_text().splitlines()[1].split(",")
        assert first[:2] == ["0.3", "10"] and first[4] == "0.669311525908"

    def test_grover_random_json(self, tmp_path):
        out = tmp_path / "rows.json"
        code = main(
            ["grover-random", "--n", "3", "--alpha", "0", "--grid", "0:1:2",
             "--realizations", "4", "--seed", "5", "--out", str(out),
             "--format", "json"]
        )
        assert code == 0
        rows = read_results(out, "json")
        assert len(rows) == 2 and rows[0].n_samples == 4

    def test_shor_systematic(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            ["shor-systematic", "--L", "2", "--R", "3", "--a", "2",
             "--grid", GRID, "--out", str(out)]
        )
        assert code == 0
        rows = read_results(out, "csv")
        assert rows[1].success == 1.0  # exact algorithm at pi/4
        assert abs(rows[0].interference_pa) < 1e-9

    def test_shor_decoherence(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            ["shor-decoherence", "--L", "2", "--R", "3", "--a", "2",
             "--error-kind", "bitflip", "--nf", "1-2", "--grid", "0:1:3",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_results(out, "csv")
        assert [(r.sweep_value, r.n_f) for r in rows] == [
            (0.0, 1), (0.0, 2), (0.5, 1), (0.5, 2), (1.0, 1), (1.0, 2),
        ]
        assert all(r.success == 1.0 for r in rows)

    def test_measure_flag_drops_columns(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(
            ["grover-systematic", "--n", "3", "--alpha", "1", "--grid", GRID,
             "--measure", "pa", "--out", str(out)]
        ) == 0
        rows = read_results(out, "csv")
        assert rows[0].interference_au is None and rows[0].ibits_au is None
        assert rows[0].interference_pa is not None and rows[0].ibits_pa is not None

    def test_measure_au_alone_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["grover-systematic", "--n", "2", "--alpha", "0", "--measure", "au"])
        assert info.value.code == 2

    def test_stdout_output(self, capsys):
        assert main(["grover-systematic", "--n", "2", "--alpha", "1", "--grid", GRID]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("sweep_value,")
        assert len(captured.strip().splitlines()) == 4

    def test_parallel_byte_identical(self, tmp_path):
        paths = []
        for tag, degree in (("a", "1"), ("b", "2")):
            out = tmp_path / f"{tag}.csv"
            assert main(
                ["grover-random", "--n", "3", "--alpha", "1", "--grid", "0:2:2",
                 "--realizations", "6", "--seed", "9", "--parallel", degree,
                 "--out", str(out)]
            ) == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]


class TestCueCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "cue.json"
        assert main(
            ["cue-baseline", "--n", "4", "--realizations", "20", "--seed", "3",
             "--format", "json", "--out", str(out)]
        ) == 0
        (record,) = json.loads(out.read_text())
        assert record["samples"] == 20
        assert 0 < record["mean"] < 16

    def test_csv_output(self, capsys):
        assert main(["cue-baseline", "--n", "2", "--realizations", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,samples,mean,stddev,seed"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_qubit_count_below_one_refused(self, n, monkeypatch, capsys):
        # refused before the first Haar draw
        def unreachable(*args):
            raise AssertionError("a unitary was drawn")

        monkeypatch.setattr("qimeter.harness.haar_unitary", unreachable)
        assert main(["cue-baseline", "--n", n, "--realizations", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and f"n = {n}" in line

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_64_bits_refused(self, seed, monkeypatch, capsys):
        # the same refusal as a sweep's, before the first Haar draw
        def unreachable(*args):
            raise AssertionError("a unitary was drawn")

        monkeypatch.setattr("qimeter.harness.haar_unitary", unreachable)
        assert main(["cue-baseline", "--n", "2", "--realizations", "10", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: master seed must fit in 64 bits\n"


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("n = 2\nalpha = 1\ngrid = 0:1:2  # two points\n")
        out = tmp_path / "rows.csv"
        code = main(
            ["grover-systematic", "--config", str(config), "--alpha", "0",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_results(out, "csv")
        assert len(rows) == 2  # grid from config
        assert rows[0].n == 2  # n from config

    def test_missing_config_is_io_error(self):
        assert main(
            ["grover-systematic", "--n", "2", "--alpha", "0",
             "--config", "/nonexistent/f.cfg"]
        ) == 4

    def test_config_line_of_an_unread_flag_rejected(self, tmp_path, capsys):
        # grover-systematic runs its grid in this process: no worker reads it
        config = tmp_path / "sweep.cfg"
        config.write_text("parallel = 2\n")
        with pytest.raises(SystemExit) as info:
            main(["grover-systematic", "--n", "3", "--config", str(config)])
        assert info.value.code == 2
        (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert line.endswith("unrecognized arguments: --parallel 2")

    def test_malformed_config_line_is_argument_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("n 5\n")
        assert main(["grover-systematic", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestExitCodes:
    def test_argument_error_from_argparse(self):
        with pytest.raises(SystemExit) as info:
            main(["grover-systematic", "--n", "notanumber"])
        assert info.value.code == 2

    def test_argument_error_from_validation(self):
        # marked item outside the register
        assert main(["grover-systematic", "--n", "2", "--alpha", "7", "--grid", GRID]) == 2

    def test_size_cap(self):
        assert main(
            ["grover-systematic", "--n", "13", "--alpha", "0", "--grid", GRID]
        ) == 3

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["grover-systematic", "--n", "13", "--alpha", "0"], "13 qubits"),
            (["shor-systematic", "--L", "5", "--R", "31", "--a", "3"], "15-qubit register"),
        ],
    )
    def test_size_cap_before_building(self, argv, size, monkeypatch, capsys):
        # the spec refuses, so no oracle or modexp table is ever built
        def unreachable(*args, **kwargs):
            raise AssertionError("a circuit was built past the size cap")

        monkeypatch.setattr("qimeter.harness.grover_random_measures", unreachable)
        monkeypatch.setattr("qimeter.harness.build_shor", unreachable)
        assert main(argv + ["--grid", GRID]) == 3
        assert size in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["grover-decoherence", "--n", "10", "--error-kind", "bitflip"],
            ["shor-decoherence", "--L", "4", "--R", "11", "--a", "2", "--error-kind", "phaseflip"],
        ],
        ids=["grover", "shor"],
    )
    def test_probability_checked_before_building(self, argv, monkeypatch, capsys):
        # the spec refuses p = 2, so no unitary is ever built
        def unreachable(*args, **kwargs):
            raise AssertionError("unitaries were built for an invalid grid")

        monkeypatch.setattr("qimeter.harness.grover_unitaries", unreachable)
        monkeypatch.setattr("qimeter.harness.shor_unitaries", unreachable)
        assert main(argv + ["--grid", "0:2:3"]) == 2
        assert "error probability 2.0 outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["grover-random", "--n", "3", "--alpha", "0", "--realizations", "2",
              "--grid", "0:nan:3"], "epsilon"),
            (["grover-systematic", "--n", "3", "--alpha", "0", "--grid", "nan:1:3"], "theta"),
            (["shor-random", "--L", "2", "--R", "3", "--a", "2", "--grid", "0:nan:3"],
             "epsilon"),
        ],
        ids=["grover-random", "grover-systematic", "shor-random"],
    )
    def test_non_finite_grid_checked_before_building(self, argv, name, monkeypatch, capsys):
        # the spec refuses the grid, so no circuit is ever built
        def unreachable(*args, **kwargs):
            raise AssertionError("a circuit was built for a non-finite grid")

        monkeypatch.setattr("qimeter.harness.grover_random_measures", unreachable)
        monkeypatch.setattr("qimeter.harness.build_shor", unreachable)
        assert main(argv) == 2
        assert f"{name} grid values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:inf:3", "-inf:1:3", "nan:1:3", "1e308:-1e308:3"])
    def test_non_finite_grid_end_refused_before_interpolating(self, grid, capsys):
        # numpy would warn about inf * 0, or about a span that overflows,
        # while spacing the points; the refusal must be the only thing on
        # stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["grover-systematic", "--n", "3", "--alpha", "0", f"--grid={grid}"])
        assert code == 2
        assert capsys.readouterr().err == "error: theta grid values must be finite\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["grover-decoherence", "--n", "3", "--error-kind", "bitflip", "--parallel", "2"],
            ["grover-systematic", "--n", "3", "--parallel", "2"],
            ["cue-baseline", "--n", "3", "--grid", "0:1:2"],
        ],
        ids=["decoherence-parallel", "grover-systematic-parallel", "cue-grid"],
    )
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert "unrecognized arguments" in line

    def test_io_error(self, tmp_path):
        assert main(
            ["grover-systematic", "--n", "2", "--alpha", "0", "--grid", GRID,
             "--out", str(tmp_path / "missing" / "rows.csv")]
        ) == 4

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [["shor-systematic", "--L", "2", "--R", "3", "--a", "2", "--grid", "0:1:2"], ["verify"]],
        ids=["sweep", "verify"],
    )
    def test_parallel_below_one_rejected(self, command, workers, capsys):
        with pytest.raises(SystemExit) as info:
            main(command + ["--parallel", workers])
        assert info.value.code == 2
        assert "parallel must be a positive integer" in capsys.readouterr().err

    def test_bad_grid_syntax(self):
        with pytest.raises(SystemExit) as info:
            main(["grover-systematic", "--n", "2", "--alpha", "0", "--grid", "oops"])
        assert info.value.code == 2


class TestVerifyCommand:
    def test_single_fast_criterion(self, capsys):
        assert main(["verify", "--criteria", "1"]) == 0
        out = capsys.readouterr().out
        assert "criterion  1 [PASS]" in out

    def test_repeated_criterion_runs_once(self, monkeypatch, capsys):
        calls = []

        def criterion(parallel):
            calls.append(parallel)
            return True, ""

        name, _, limit = acceptance.CRITERIA[1]
        monkeypatch.setitem(acceptance.CRITERIA, 1, (name, criterion, limit))
        assert main(["verify", "--criteria", "1,1"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.count("criterion  1 [PASS]") == 1

    def test_parallel_reaches_only_the_criteria_that_read_it(self, monkeypatch):
        takes = [i for i, (_, fn, _) in acceptance.CRITERIA.items() if fn.__code__.co_argcount]
        assert takes == [4, 10]
        seen = {}

        def sweeps(parallel):
            seen["sweeps"] = parallel
            return True, ""

        def plain():
            seen["plain"] = True
            return True, ""

        for index, fn in ((1, plain), (4, sweeps)):
            name, _, limit = acceptance.CRITERIA[index]
            monkeypatch.setitem(acceptance.CRITERIA, index, (name, fn, limit))
        assert main(["verify", "--criteria", "1,4", "--parallel", "3"]) == 0
        assert seen == {"sweeps": 3, "plain": True}

    def test_unknown_criterion_is_argument_error(self):
        assert main(["verify", "--criteria", "99"]) == 2

    @pytest.mark.parametrize("criteria", ["", "1,x"])
    def test_malformed_criteria_run_nothing(self, criteria, monkeypatch, capsys):
        def unreachable(parallel):
            raise AssertionError("a criterion ran")

        for index, (name, _, limit) in list(acceptance.CRITERIA.items()):
            monkeypatch.setitem(acceptance.CRITERIA, index, (name, unreachable, limit))
        with pytest.raises(SystemExit) as info:
            main(["verify", "--criteria", criteria])
        assert info.value.code == 2
        (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert repr(criteria) in line

    def test_zero_point_grid_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["grover-systematic", "--n", "2", "--alpha", "0", "--grid", "0:1:0"])
        assert info.value.code == 2

    def test_zero_realizations_rejected(self):
        assert main(
            ["grover-random", "--n", "2", "--alpha", "0", "--grid", "0:1:2",
             "--realizations", "0"]
        ) == 2
