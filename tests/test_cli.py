"""Command-line interface: config plumbing, output formats, exit codes."""

from __future__ import annotations

import argparse
import copy
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import fresh_cli

from crosswatch import cli, closedform, fluctuation, montecarlo, timedomain, validation
from crosswatch.errors import (
    DivergenceError,
    InversionError,
    RunawaySimulationError,
    TableInvariantError,
)

SPECIAL_MODEL = {
    "lambda": 1.0,
    "marks": {"geometric": {"a": 0.5}},
    "obs": {"mu": 1.0, "initial": "zero"},
    "threshold": 3,
}
GENERAL_MODEL = {
    "lambda": 1.0,
    "marks": {"geometric": {"a": 0.5}},
    "obs": {"mu": 1.0, "initial": "exp"},
    "threshold": 3,
}


def _config(tmp_path, name="run.json", model=SPECIAL_MODEL, **extra):
    payload = {"schema_version": 1, "model": model, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 64

    def test_unknown_command_exits_64(self, tmp_path):
        cfg = _config(tmp_path, t_grid=[0.0, 1.0])
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["survive", "--config", cfg])
        assert excinfo.value.code == 64

    def test_unknown_flag_exits_64(self, tmp_path):
        cfg = _config(tmp_path, t_grid=[0.0, 1.0])
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["survival", "--config", cfg, "--frobnicate"])
        assert excinfo.value.code == 64

    @pytest.mark.parametrize("command, option, keys", [
        ("survival", ["--t-grid", "0:2:3"], {"t_grid": [0.0, 1.0]}),
        ("dist", ["--r-max", "6"], {"t_grid": [0.0, 1.0], "r_max": 5}),
        ("functional", ["--check-mc", "1000"], {"args": {"theta": 1.0}}),
        ("functional", ["--exponent-form", "tau"], {"args": {"theta": 1.0}}),
    ], ids=["t-grid", "r-max", "check-mc", "exponent-form"])
    def test_removed_option_exits_64(self, capsys, tmp_path, command, option, keys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--config", _config(tmp_path, **keys), *option])
        captured = capsys.readouterr()
        assert excinfo.value.code == 64
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in captured.err

    @pytest.mark.parametrize("command, keys", [
        ("dist", {"t_grid": [0.0, 1.0], "r_max": 5}),
        ("survival", {"t_grid": [0.0, 1.0]}),
        ("functional", {"args": {"theta": 1.0}}),
        ("simulate", {"n_paths": 1_000}),
        ("predict", {"horizon": 1.0, "t_steps": 2}),
    ], ids=["dist", "survival", "functional", "simulate", "predict"])
    def test_perturbation_flag_is_validate_only(self, capsys, tmp_path, command, keys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--config", _config(tmp_path, **keys), "--seed", "3", "--perturb-c", "1e-3"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 64
        assert captured.out == ""
        assert "--perturb-c applies to validate only" in captured.err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["survival", "--config", str(tmp_path / "nope.json")])
        assert code == 64
        assert "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = _run(capsys, ["survival", "--config", str(path)])
        assert code == 64
        assert "not valid JSON" in err

    def test_unknown_config_key_named_in_message(self, capsys, tmp_path):
        cfg = _config(tmp_path, t_grid=[0.0, 1.0], tgrid=[0.0])
        code, _, err = _run(capsys, ["survival", "--config", cfg])
        assert code == 64
        assert "tgrid" in err

    def test_wrong_schema_version(self, capsys, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"schema_version": 2, "model": SPECIAL_MODEL, "t_grid": [0.0]}))
        code, _, err = _run(capsys, ["survival", "--config", str(path)])
        assert code == 64
        assert "schema_version" in err

    def test_command_key_leakage_rejected(self, capsys, tmp_path):
        # "horizon" belongs to predict, not survival.
        cfg = _config(tmp_path, t_grid=[0.0, 1.0], horizon=2.0)
        code, _, err = _run(capsys, ["survival", "--config", cfg])
        assert code == 64

    def test_dist_needs_level_bound(self, capsys, tmp_path):
        cfg = _config(tmp_path, t_grid=[0.0, 1.0])
        code, _, err = _run(capsys, ["dist", "--config", cfg])
        assert code == 64
        assert "r_max" in err

    def test_dist_rejects_general_model(self, capsys, tmp_path):
        # an exp start on geometric marks is served (the first gap is an Exp(mu) one); pmf marks are not
        cfg = _config(tmp_path, model={**GENERAL_MODEL, "marks": {"pmf": [0.0, 0.5, 0.5]}}, t_grid=[0.0, 1.0], r_max=5)
        code, _, err = _run(capsys, ["dist", "--config", cfg])
        assert code == 64
        assert "functional" in err

    def test_functional_rejects_unknown_which(self, capsys, tmp_path):
        # "which" is no longer a key: every G1/G2/G value is in the payload
        cfg = _config(tmp_path, args={"theta": 1.0}, which="G")
        code, out, err = _run(capsys, ["functional", "--config", cfg])
        assert code == 64
        assert out == ""
        assert "unknown config key(s) ['which']" in err

    def test_functional_needs_args(self, capsys, tmp_path):
        cfg = _config(tmp_path)
        code, _, err = _run(capsys, ["functional", "--config", cfg])
        assert code == 64

    def test_missing_time_grid(self, capsys, tmp_path):
        cfg = _config(tmp_path)
        code, _, err = _run(capsys, ["survival", "--config", cfg])
        assert code == 64
        assert "t_grid" in err

    @pytest.mark.parametrize("r_max", [True, 2.9, 3.0, "7", "abc", -1])
    def test_dist_rejects_non_integer_level_bound(self, capsys, tmp_path, r_max):
        cfg = _config(tmp_path, t_grid=[0.0, 1.0], r_max=r_max)
        code, out, err = _run(capsys, ["dist", "--config", cfg])
        assert code == 64
        assert out == ""
        assert "r_max" in err

    @pytest.mark.parametrize(
        "t_grid", [[0.0, True], ["0.5", "1"], ["abc"], [0.0, None], [0.0, 10**400], [-0.5, 1.0], [1.0, 0.0]]
    )
    def test_time_grid_entries_must_be_numbers(self, capsys, tmp_path, t_grid):
        for command, extra in (("dist", {"r_max": 4}), ("survival", {})):
            cfg = _config(tmp_path, t_grid=t_grid, **extra)
            code, out, err = _run(capsys, [command, "--config", cfg])
            assert code == 64
            assert out == ""
            assert "t_grid" in err


# JSON values that are not finite numbers: a boolean, a numeric string, an
# integer beyond the float range and the non-standard Infinity literal
NOT_FINITE_NUMBERS = [True, "0.5", 10**400, math.inf]
NUMBER_FIELDS = [
    ("survival", {"t_grid": [0.0, 1.0]}, ("model", "lambda")),
    ("survival", {"t_grid": [0.0, 1.0]}, ("model", "obs", "mu")),
    ("survival", {"t_grid": [0.0, 1.0]}, ("model", "marks", "geometric", "a")),
    ("predict", {"horizon": 2.0}, ("horizon",)),
    ("functional", {"args": {"theta": 1.0}}, ("args", "theta")),
    ("functional", {"args": {"theta": 1.0, "y": 0.5}}, ("args", "y")),
    ("simulate", {"n_paths": 1_000, "args": {"theta": 1.0}}, ("args", "theta")),
    # perturb_c is no longer a key (the flag is its one source): refused whatever its value
    ("validate", {"n_paths": 1_000, "perturb_c": 0.0}, ("perturb_c",)),
]


class TestConfigNumbers:
    @pytest.mark.parametrize("value", NOT_FINITE_NUMBERS, ids=["bool", "string", "huge-int", "infinity"])
    @pytest.mark.parametrize("command, keys, path", NUMBER_FIELDS, ids=[".".join(f[2]) for f in NUMBER_FIELDS])
    def test_refused_with_exit_64(self, capsys, tmp_path, command, keys, path, value):
        payload = copy.deepcopy({"schema_version": 1, "model": SPECIAL_MODEL, **keys})
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = _run(capsys, [command, "--config", str(cfg)])
        assert code == 64
        assert out == ""
        assert path[-1] in err

    def test_integer_horizon_still_accepted(self, capsys, tmp_path):
        as_int = _run(capsys, ["predict", "--config", _config(tmp_path, horizon=2, t_steps=3)])
        as_float = _run(capsys, ["predict", "--config", _config(tmp_path, horizon=2.0, t_steps=3)])
        assert as_int == as_float and as_int[0] == 0


# one good config per command; each refusal case below breaks it in one place
GOOD_KEYS = {
    "dist": {"t_grid": [0.0, 1.0], "r_max": 5},
    "survival": {"t_grid": [0.0, 1.0]},
    "functional": {"args": {"theta": 1.0}},
    "simulate": {"n_paths": 1_000, "args": {"theta": 1.0}},
    "validate": {"n_paths": 1_000},
    "predict": {"horizon": 1.0, "t_steps": 3},
}
DROP = object()  # the case removes the key instead of setting it

# (id, command, path to the broken value, the value or DROP, text that names the key)
REFUSALS = [
    # config objects that are not JSON objects
    ("root-array", "survival", (), [0.0, 1.0], "config"),
    ("model-array", "survival", ("model",), [1.0], "model"),
    ("marks-array", "survival", ("model", "marks"), [0.5, 0.5], "marks"),
    ("geometric-number", "survival", ("model", "marks", "geometric"), 0.5, "marks.geometric"),
    ("obs-string", "survival", ("model", "obs"), "zero", "obs"),
    ("args-array", "functional", ("args",), [1.0], "args"),
    ("simulate-args-null", "simulate", ("args",), None, "args"),
    # unknown keys
    ("root-unknown", "survival", ("tgrid",), [0.0], "tgrid"),
    ("model-unknown", "survival", ("model", "rate"), 1.0, "rate"),
    ("marks-unknown", "survival", ("model", "marks", "poisson"), 1.0, "poisson"),
    ("geometric-unknown", "survival", ("model", "marks", "geometric", "b"), 0.5, "['b']"),
    ("obs-unknown", "survival", ("model", "obs", "sigma"), 1.0, "sigma"),
    ("args-unknown", "functional", ("args", "z"), 0.5, "['z']"),
    # missing keys
    ("root-schema-version", "survival", ("schema_version",), DROP, "schema_version"),
    ("root-model", "survival", ("model",), DROP, "model"),
    ("model-lambda", "survival", ("model", "lambda"), DROP, "lambda"),
    ("model-marks", "survival", ("model", "marks"), DROP, "marks"),
    ("model-obs", "survival", ("model", "obs"), DROP, "obs"),
    ("model-threshold", "survival", ("model", "threshold"), DROP, "threshold"),
    ("marks-empty", "survival", ("model", "marks", "geometric"), DROP, "geometric"),
    ("geometric-a", "survival", ("model", "marks", "geometric", "a"), DROP, "marks.geometric"),
    ("obs-mu", "survival", ("model", "obs", "mu"), DROP, "mu"),
    ("obs-initial", "survival", ("model", "obs", "initial"), DROP, "initial"),
    ("args-theta", "functional", ("args", "theta"), DROP, "theta"),
    # each command's required keys
    ("dist-t-grid", "dist", ("t_grid",), DROP, "t_grid"),
    ("dist-r-max", "dist", ("r_max",), DROP, "r_max"),
    ("survival-t-grid", "survival", ("t_grid",), DROP, "t_grid"),
    ("functional-args", "functional", ("args",), DROP, "args"),
    ("predict-horizon", "predict", ("horizon",), DROP, "horizon"),
    # values out of range
    ("lambda-negative", "survival", ("model", "lambda"), -1.0, "lambda"),
    ("lambda-zero", "survival", ("model", "lambda"), 0, "lambda"),
    ("mu-zero", "survival", ("model", "obs", "mu"), 0.0, "obs.mu"),
    ("mu-negative", "survival", ("model", "obs", "mu"), -2.0, "obs.mu"),
    ("initial-unknown", "survival", ("model", "obs", "initial"), "late", "obs.initial"),
    ("a-zero", "survival", ("model", "marks", "geometric", "a"), 0.0, "marks.geometric.a"),
    ("a-above-one", "survival", ("model", "marks", "geometric", "a"), 1.5, "marks.geometric.a"),
    ("pmf-sum", "survival", ("model", "marks"), {"pmf": [0.5, 0.6]}, "marks.pmf"),
    ("pmf-negative", "survival", ("model", "marks"), {"pmf": [-0.5, 1.5]}, "marks.pmf"),
    ("pmf-empty", "survival", ("model", "marks"), {"pmf": []}, "marks.pmf"),
    ("threshold-negative", "survival", ("model", "threshold"), -1, "threshold"),
    ("threshold-fraction", "survival", ("model", "threshold"), 3.5, "threshold"),
    ("threshold-string", "survival", ("model", "threshold"), "3", "threshold"),
    ("threshold-huge", "survival", ("model", "threshold"), 20_000, "threshold"),
    ("t-grid-empty", "survival", ("t_grid",), [], "t_grid"),
    ("t-grid-string", "dist", ("t_grid",), "0 1", "t_grid"),
    ("r-max-negative", "dist", ("r_max",), -1, "r_max"),
    ("n-paths-zero", "simulate", ("n_paths",), 0, "n_paths"),
    ("n-paths-fraction", "validate", ("n_paths",), 1.5, "n_paths"),
    ("t-steps-zero", "predict", ("t_steps",), 0, "t_steps"),
    ("t-steps-bool", "predict", ("t_steps",), True, "t_steps"),
    ("horizon-negative", "predict", ("horizon",), -1.0, "horizon"),
    # schema versions that only compare equal to 1
    ("root-version-true", "survival", ("schema_version",), True, "schema_version True in config"),
    ("root-version-float", "survival", ("schema_version",), 1.0, "schema_version 1.0 in config"),
    ("model-version-true", "survival", ("model", "schema_version"), True, "schema_version True in model"),
    ("model-version-float", "survival", ("model", "schema_version"), 1.0, "schema_version 1.0 in model"),
]


class TestRefusals:
    @pytest.mark.parametrize("command, path, value, named", [case[1:] for case in REFUSALS],
                             ids=[case[0] for case in REFUSALS])
    def test_refused_by_name(self, capsys, tmp_path, command, path, value, named):
        payload = copy.deepcopy({"schema_version": 1, "model": SPECIAL_MODEL, **GOOD_KEYS[command]})
        if path:
            node = payload
            for key in path[:-1]:
                node = node[key]
            if value is DROP:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        else:
            payload = value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = _run(capsys, [command, "--config", str(cfg)])
        assert (code, out) == (64, "")
        assert err.startswith("error: ") and named in err, err

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed(self, capsys, tmp_path, seed):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--config", _config(tmp_path, n_paths=1_000), "--seed", seed])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (64, "")
        assert "--seed" in captured.err

    @pytest.mark.parametrize("initial", [["zero"], {"zero": 1}])
    def test_unhashable_initial_refused(self, capsys, tmp_path, initial):
        # a set lookup would raise TypeError on these and leave with a traceback
        cfg = _config(tmp_path, model={**SPECIAL_MODEL, "obs": {"mu": 1.0, "initial": initial}}, t_grid=[0.0])
        code, out, err = _run(capsys, ["survival", "--config", cfg])
        assert (code, out) == (64, "")
        assert "obs.initial" in err

    def test_model_keeps_its_own_schema_version(self, capsys, tmp_path):
        for version, code in ((1, 0), (2, 64)):
            cfg = _config(tmp_path, model={**SPECIAL_MODEL, "schema_version": version}, t_grid=[0.0])
            assert _run(capsys, ["survival", "--config", cfg])[0] == code


class TestParser:
    def test_second_call_builds_no_parser(self, capsys, tmp_path, monkeypatch):
        cfg = _config(tmp_path, args={"theta": 1.0})
        assert _run(capsys, ["functional", "--config", cfg])[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert _run(capsys, ["functional", "--config", cfg])[0] == 0
        assert built == []

    def test_no_state_leaks_between_calls(self, capsys, tmp_path):
        cfg = _config(tmp_path, t_grid=[0.0, 0.5, 1.0, 2.0])
        out_path = tmp_path / "grid.csv"
        cli._build_parser.cache_clear()
        code, first, _ = _run(capsys, ["survival", "--config", cfg])
        assert code == 0
        code, piped, _ = _run(capsys, ["survival", "--seed", "7", "--out", str(out_path), "--config", cfg])
        assert code == 0 and piped == ""
        assert out_path.read_text() == first
        code, again, _ = _run(capsys, ["survival", "--config", cfg])
        assert code == 0
        assert again == first

    def test_options_may_precede_the_command(self, capsys, tmp_path):
        cfg = _config(tmp_path, n_paths=1_000)
        paths = [tmp_path / "after.csv", tmp_path / "before.csv"]
        after = _run(capsys, ["simulate", "--config", cfg, "--seed", "6", "--out", str(paths[0])])
        before = _run(capsys, ["--seed", "6", "--out", str(paths[1]), "--config", cfg, "simulate"])
        assert after == before == (0, "", "")
        assert paths[0].read_text() == paths[1].read_text()

    def test_help_lists_every_command(self):
        run = fresh_cli("--help")
        assert run.returncode == 0, run.err
        for command in cli._COMMANDS:
            assert f"\n  {command} " in run.out


class TestDist:
    def test_long_format_csv(self, capsys, tmp_path):
        cfg = _config(tmp_path, t_grid=[0.0, 0.5, 1.0], r_max=6)
        code, out, err = _run(capsys, ["dist", "--config", cfg])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,r,probability"
        assert len(lines) == 1 + 3 * 7
        t, r, p = lines[1].split(",")
        assert float(t) == 0.0 and int(r) == 0 and float(p) == 0.0
        probs = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        cfg = _config(tmp_path, t_grid=[0.0, 0.5, 1.0], r_max=6)
        _, first, _ = _run(capsys, ["dist", "--config", cfg])
        _, second, _ = _run(capsys, ["dist", "--config", cfg])
        assert first == second

    @pytest.mark.parametrize("target", [("missing", "x.csv"), ()], ids=["missing-dir", "is-a-dir"])
    def test_unwritable_out_exits_64(self, capsys, tmp_path, target):
        out_path = str(tmp_path.joinpath(*target))
        cfg = _config(tmp_path, t_grid=[0.0, 1.0], r_max=3)
        code, out, err = _run(capsys, ["dist", "--config", cfg, "--out", out_path])
        assert code == 64
        assert out == ""
        assert f"cannot write output {out_path!r}" in err

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        cfg = _config(tmp_path, t_grid=[0.0, 1.0], r_max=3)
        out_path = tmp_path / "table.csv"
        code, piped, _ = _run(capsys, ["dist", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        assert piped == ""
        text = out_path.read_bytes().decode()
        _, stdout_text, _ = _run(capsys, ["dist", "--config", cfg])
        assert text == stdout_text
        assert "\r" not in text


class TestSurvival:
    def test_curves_and_exact_time_zero_values(self, capsys, tmp_path):
        cfg = _config(tmp_path, t_grid=[0.0, 0.5, 1.0, 2.0])
        code, out, _ = _run(capsys, ["survival", "--config", cfg])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,survival_pre,survival_cross"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # P{tau_pre > 0} = P{nu >= 2} = 101/128 for this model; crossing
        # happens strictly after zero because inspection gaps are continuous.
        assert abs(rows[0, 1] - 101.0 / 128.0) < 1e-9
        assert abs(rows[0, 2] - 1.0) < 1e-9
        assert np.all(np.diff(rows[:, 1]) <= 1e-9)
        assert np.all(np.diff(rows[:, 2]) <= 1e-9)
        assert np.all((rows[:, 1:] >= 0.0) & (rows[:, 1:] <= 1.0))

    def test_pre_curve_dominated_by_cross_curve(self, capsys, tmp_path):
        cfg = _config(tmp_path, t_grid=list(np.linspace(0.0, 5.0, 11)))
        code, out, _ = _run(capsys, ["survival", "--config", cfg])
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().split("\n")[1:]])
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-9)


class TestFunctional:
    def test_payload_structure_and_additivity(self, capsys, tmp_path):
        cfg = _config(tmp_path, args={"theta": 0.7, "v": 0.8})
        code, out, _ = _run(capsys, ["functional", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"schema_version", "args", "values"}
        assert payload["schema_version"] == 1
        assert payload["args"]["theta"] == 0.7
        assert payload["args"]["u"] == 1.0
        g1, g2, g = (complex(payload["values"][k]["re"], payload["values"][k]["im"]) for k in ("G1", "G2", "G"))
        assert abs(g - (g1 + g2)) < 1e-12


class TestSimulate:
    def test_summary_rows(self, capsys, tmp_path):
        cfg = _config(tmp_path, n_paths=4000)
        code, out, _ = _run(capsys, ["simulate", "--config", cfg, "--seed", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "quantity,mean,std_error,n"
        table = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert set(table) == {"nu", "a_pre", "a_cross", "overshoot", "tau_pre", "tau_cross"}
        assert all(int(row[2]) == 4000 for row in table.values())
        a_cross = float(table["a_cross"][0])
        assert a_cross > 3.0
        assert math.isclose(float(table["overshoot"][0]), a_cross - 3.0, rel_tol=1e-11)
        assert float(table["tau_pre"][0]) <= float(table["tau_cross"][0])

    def test_args_section_appends_functional_rows(self, capsys, tmp_path):
        cfg = _config(tmp_path, n_paths=2000, args={"theta": 1.0})
        code, out, _ = _run(capsys, ["simulate", "--config", cfg])
        assert code == 0
        names = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
        assert names[-3:] == ["G1", "G2", "G"]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        cfg = _config(tmp_path, n_paths=3000, args={"theta": 0.5, "v": 0.9})
        _, first, _ = _run(capsys, ["simulate", "--config", cfg, "--seed", "11"])
        _, second, _ = _run(capsys, ["simulate", "--config", cfg, "--seed", "11"])
        assert first == second

    def test_seed_changes_output(self, capsys, tmp_path):
        cfg = _config(tmp_path, n_paths=3000)
        _, first, _ = _run(capsys, ["simulate", "--config", cfg, "--seed", "11"])
        _, second, _ = _run(capsys, ["simulate", "--config", cfg, "--seed", "12"])
        assert first != second

    def test_a_rate_argument_in_the_slack_below_zero_is_read_as_zero(self, capsys, tmp_path):
        # the analytic transform and its Monte Carlo check take the same args object
        at_zero = {"theta": 0.5, "v": 0.9, "w": 0.0}
        in_slack = {**at_zero, "w": -1e-13}
        code, _, _ = _run(capsys, ["functional", "--config", _config(tmp_path, args=in_slack)])
        assert code == 0
        _, want, _ = _run(capsys, ["simulate", "--config", _config(tmp_path, n_paths=3000, args=at_zero)])
        code, got, _ = _run(capsys, ["simulate", "--config", _config(tmp_path, n_paths=3000, args=in_slack)])
        assert code == 0 and got == want

    @pytest.mark.parametrize("args, name", [({"theta": 1.0, "v": 1.5}, "v"), ({"theta": 1.0, "u": -0.5}, "u")])
    def test_bad_args_refused_before_sampling(self, capsys, tmp_path, monkeypatch, args, name):
        def sample(*_, **__):
            raise AssertionError("paths drawn before the args were checked")

        monkeypatch.setattr(montecarlo, "_crossing_sample", sample)
        cfg = _config(tmp_path, n_paths=200_000, args=args)
        code, out, err = _run(capsys, ["simulate", "--config", cfg])
        assert code == 64 and out == ""
        assert name in err


class TestValidate:
    def test_passing_battery_exits_zero(self, capsys, tmp_path):
        cfg = _config(tmp_path, n_paths=10_000)
        code, out, err = _run(capsys, ["validate", "--config", cfg])
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["all_passed"] is True
        assert report["n_paths"] == 10_000

    def test_perturbation_flag_trips_named_check(self, capsys, tmp_path):
        cfg = _config(tmp_path, n_paths=10_000)
        code, out, err = _run(capsys, ["validate", "--config", cfg,
                                       "--perturb-c", "1e-3"])
        assert code == 1
        assert "validation failed" in err
        assert "time-domain-inversion-agreement" in err
        report = json.loads(out)
        assert report["all_passed"] is False
        assert report["failed_checks"] == [
            "pgf-extraction-consistency", "time-domain-inversion-agreement"
        ]

    def test_perturbation_key_rejected(self, capsys, tmp_path):
        cfg = _config(tmp_path, n_paths=10_000, perturb_c=1e-3)
        code, out, err = _run(capsys, ["validate", "--config", cfg])
        assert code == 64
        assert out == ""
        assert "unknown config key(s) ['perturb_c']" in err

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_perturbation_exits_64(self, capsys, tmp_path, eps):
        cfg = _config(tmp_path, n_paths=1_000)
        code, out, err = _run(capsys, ["validate", "--config", cfg, "--perturb-c", eps])
        assert code == 64
        assert out == ""
        assert "--perturb-c must be finite" in err

    def test_large_threshold_ends_with_a_report(self, capsys, tmp_path):
        # at M = 1000 and v = 0.3, g1_star underflows to 0 on the series route
        cfg = _config(tmp_path, model={**SPECIAL_MODEL, "threshold": 1000}, n_paths=1_000)
        code, out, err = _run(capsys, ["validate", "--config", cfg])
        assert code in (0, 1)
        assert "Traceback" not in err

        def reject(constant):
            raise AssertionError(f"{constant} is not strict JSON")

        report = json.loads(out, parse_constant=reject)
        assert report["n_paths"] == 1_000
        # an infinite observation is written as null, and its check fails
        unbounded = [c for c in report["checks"] if c["observed"] is None]
        assert unbounded and all(c["margin"] is None and not c["passed"] for c in unbounded)

    def test_perturbation_needs_the_closed_forms(self, capsys, tmp_path):
        # an Exp-start model runs no closed form, so a shift would test nothing
        cfg = _config(tmp_path, model=GENERAL_MODEL, n_paths=5_000)
        code, out, err = _run(capsys, ["validate", "--config", cfg, "--perturb-c", "1e-3"])
        assert code == 64
        assert out == ""
        assert "c_shift" in err


class TestPredict:
    def test_special_model_report(self, capsys, tmp_path):
        cfg = _config(tmp_path, horizon=2.0, t_steps=5)
        code, out, _ = _run(capsys, ["predict", "--config", cfg])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "quantity,arg,value"
        crash = [float(line.split(",")[2]) for line in lines if line.startswith("crash_prob")]
        assert len(crash) == 5
        assert crash[0] == 0.0
        assert all(b >= a for a, b in zip(crash, crash[1:]))
        pmf = {int(line.split(",")[1]): float(line.split(",")[2])
               for line in lines if line.startswith("overshoot_pmf")}
        assert min(pmf) == 4
        assert abs(sum(pmf.values()) - 1.0) < 1e-6
        tail = lines[-1].split(",")
        assert tail[0] == "expected_overshoot"
        # mean overshoot above the threshold is 1/(1-c) = 4 for this model
        assert abs(float(tail[2]) - 4.0) < 1e-9

    def test_general_model_overshoot_is_exact(self, capsys, tmp_path):
        cfg = _config(tmp_path, model=GENERAL_MODEL, horizon=1.0, t_steps=3)
        code, out, _ = _run(capsys, ["predict", "--config", cfg, "--seed", "2"])
        assert code == 0
        lines = out.strip().split("\n")
        expected = float(lines[-1].split(",")[2])
        # overshoot law is the same geometric regardless of the delay grid
        assert abs(expected - 4.0) < 1e-9
        pmf = {int(line.split(",")[1]): float(line.split(",")[2])
               for line in lines if line.startswith("overshoot_pmf")}
        assert min(pmf) == 4
        assert all(abs(p - 0.25 * 0.75 ** (r - 4)) < 1e-12 for r, p in pmf.items())

    def test_output_does_not_depend_on_the_seed(self, capsys, tmp_path):
        model = {**SPECIAL_MODEL, "marks": {"pmf": [0.0, 0.5, 0.3, 0.2]}}
        cfg = _config(tmp_path, model=model, horizon=4.0, t_steps=5)
        runs = [_run(capsys, ["predict", "--config", cfg, "--seed", seed]) for seed in ("0", "2")]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    def test_path_count_key_rejected(self, capsys, tmp_path):
        cfg = _config(tmp_path, horizon=1.0, n_paths=30_000)
        code, out, err = _run(capsys, ["predict", "--config", cfg])
        assert code == 64
        assert out == ""
        assert "n_paths" in err


class TestFailureExitCodes:
    def test_table_invariant_maps_to_2(self, capsys, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise TableInvariantError("negative mass", cells=[(0, 1), (2, 3)])

        monkeypatch.setattr(closedform, "dist_table", boom)
        cfg = _config(tmp_path, t_grid=[0.0, 1.0], r_max=4)
        code, _, err = _run(capsys, ["dist", "--config", cfg])
        assert code == 2
        assert "table invariant violated" in err
        assert "offending cell" in err

    def test_inversion_failure_maps_to_3(self, capsys, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise InversionError("self-check diverged")

        # survival sums exact laws; the battery is what still inverts transforms
        monkeypatch.setattr(validation, "run_battery", boom)
        cfg = _config(tmp_path, n_paths=1000)
        code, _, err = _run(capsys, ["validate", "--config", cfg])
        assert code == 3
        assert "inversion failed" in err

    def test_divergence_maps_to_4(self, capsys, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise DivergenceError("outside the contraction region")

        monkeypatch.setattr(fluctuation, "_g_parts", boom)
        cfg = _config(tmp_path, args={"theta": 1.0})
        code, _, err = _run(capsys, ["functional", "--config", cfg])
        assert code == 4
        assert "divergence" in err

    def test_degenerate_marks_map_to_4(self, capsys, tmp_path):
        # all marks are zero, so the level never crosses and G1 diverges
        model = {**SPECIAL_MODEL, "marks": {"pmf": [1.0]}}
        cfg = _config(tmp_path, model=model, args={"theta": 1.0})
        code, out, err = _run(capsys, ["functional", "--config", cfg])
        assert code == 4
        assert out == ""
        assert "divergence" in err

    def test_zero_marks_simulate_fails_at_once(self, capsys, tmp_path):
        # the level never moves, so the simulator refuses before its first wave
        model = {**SPECIAL_MODEL, "marks": {"pmf": [1.0]}}
        cfg = _config(tmp_path, model=model, n_paths=2000)
        start = time.perf_counter()
        code, out, err = _run(capsys, ["simulate", "--config", cfg])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        assert "divergence" in err

    @pytest.mark.parametrize("pmf", [[1.0], [1.0, 0.0]], ids=["one", "two"])
    @pytest.mark.parametrize("command, keys", [*[(c, k) for c, k in GOOD_KEYS.items() if c != "functional"],
                                               ("functional", {"args": {"theta": 1.0, "w": 0.0}}),
                                               ("functional", {"args": {"theta": 1.0, "w": 0.5}})])
    def test_zero_marks_refused_once_by_every_command(self, capsys, tmp_path, command, keys, pmf):
        # the model refuses marks that never move the level, before any command reads it
        cfg = _config(tmp_path, model={**SPECIAL_MODEL, "marks": {"pmf": pmf}}, **keys)
        code, out, err = _run(capsys, [command, "--config", cfg])
        assert (code, out) == (4, "")
        assert err == "divergence: every mark is zero, so the level never crosses the threshold\n"

    def test_runaway_simulation_maps_to_4(self, capsys, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RunawaySimulationError("epoch cap exceeded")

        monkeypatch.setattr(montecarlo, "_crossing_sample", boom)
        cfg = _config(tmp_path, n_paths=1000)
        code, _, err = _run(capsys, ["simulate", "--config", cfg])
        assert code == 4
        assert "divergence" in err


    @pytest.mark.parametrize("command, target, keys", [
        ("simulate", (montecarlo, "_crossing_sample"), {"n_paths": 1_000}),
        ("predict", (timedomain, "_survival_laws"), {"horizon": 1.0, "t_steps": 3}),
    ], ids=["simulate", "predict"])
    def test_out_of_memory_maps_to_64(self, capsys, tmp_path, monkeypatch, command, target, keys):
        # stands in for an oversized size key; whether a huge request fails at
        # once depends on the host's overcommit policy, so nothing is allocated
        def boom(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(*target, boom)
        code, out, err = _run(capsys, [command, "--config", _config(tmp_path, **keys)])
        assert code == 64
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n"


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        # scipy would add about a second to every CLI start; mpmath is a test tool too
        run = fresh_cli("--help")
        assert run.returncode == 0, run.err
        assert {name for name in run.modules if name.split(".")[0] != "crosswatch"} == set()

    def test_scipy_is_only_a_test_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
        names = lambda deps: {dep.split(">")[0].split("=")[0].strip() for dep in deps}
        assert "scipy" not in names(project["project"]["dependencies"])
        assert "scipy" in names(project["project"]["optional-dependencies"]["test"])
