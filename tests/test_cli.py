"""Configuration parsing, command dispatch, artifact outputs."""

import argparse
import dataclasses
import json
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boussinesq_lp import cli, fileio, harness
from boussinesq_lp.boussinesq import synthesize_holder_field
from boussinesq_lp.spectral import SpectralField, linf_norm, make_grid


class TestParseConfig:
    def test_basic_solve_flags(self, tmp_path):
        config = cli.parse_config(
            ["solve", "--n", "64", "--r", "1.5", "--T", "1.0", "--dt", "1e-3",
             "--out-dir", str(tmp_path)]
        )
        assert config.command == "solve"
        assert config.n == 64 and config.r == 1.5 and config.T == 1.0

    def test_power_of_two_rule(self, tmp_path):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(["solve", "--n", "100", "--out-dir", str(tmp_path)])
        assert any("power of two" in p for p in err.value.problems)

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"r": 1.5, "n": 64}))
        config = cli.parse_config(
            ["solve", "--config", str(cfg), "--r", "2.0", "--out-dir", str(tmp_path)]
        )
        assert config.r == 2.0
        assert config.n == 64

    def test_preset_overridden_by_flags(self, tmp_path):
        config = cli.parse_config(
            ["solve", "--preset", "hydrostatic", "--T", "0.5", "--out-dir", str(tmp_path)]
        )
        assert config.data == "hydrostatic"
        assert config.T == 0.5

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli.parse_config(["frobnicate"])

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"viscosity": 1.0}))
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert any("viscosity" in p for p in err.value.problems)

    def test_collects_all_problems(self, tmp_path):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(
                ["solve", "--n", "100", "--r", "-1", "--dt", "-2", "--out-dir", str(tmp_path)]
            )
        assert len(err.value.problems) >= 3

    def test_verify_requires_known_estimate(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(["verify", "--estimate", "bogus", "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize("field,value", [("T", "1"), ("T", True), ("n", 64.0), ("eps", ["a"]), ("eps", [])])
    def test_wrong_type_in_config_file_exits_2(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({field: value}))
        argv = ["probe", "--config", str(cfg), "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        assert f"config error: {field} " in capsys.readouterr().err

    def test_config_file_must_hold_an_object(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize("field,value", [("p", "x"), ("q", "0.5"), ("seed", -1)])
    def test_out_of_domain_values_rejected(self, tmp_path, field, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({field: value}))
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(["lp-analyze", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert any(p.startswith(f"{field} ") for p in err.value.problems)

    @pytest.mark.parametrize("flag,value", [("--T", "nan"), ("--T", "inf"), ("--dt", "inf")])
    def test_non_finite_time_lattice_exits_2(self, tmp_path, capsys, flag, value):
        argv = ["iterate", "--preset", "small-data-iteration", flag, value, "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        assert f"config error: {flag[2:]} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command,preset", [("probe", "taylor-green"), ("iterate", "small-data-iteration")])
    def test_gap_commands_require_r_above_one(self, tmp_path, capsys, command, preset):
        # both measure gaps in C^{r-1}, which needs r - 1 > 0
        argv = [command, "--preset", preset, "--r", "1", "--T", "0.01", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        assert f"config error: {command} requires r > 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload", [{"preset": "hydrostatic", "T": 0.04}, {"preset": "nonexistent"}, {"command": "iterate"}]
    )
    def test_config_file_cannot_choose_command_or_preset(self, tmp_path, capsys, payload):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        assert cli.main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        (key,) = set(payload) - {"T"}
        assert capsys.readouterr().err.startswith(f"config error: {key} is chosen on the command line")
        assert not (tmp_path / "monitor.csv").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(cli.RunConfig) if f.type.startswith("float")] + ["eps"]
    )
    def test_non_finite_number_in_config_file_exits_2(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "run.json"
        given = (1e-3, value) if field == "eps" else value
        cfg.write_text(json.dumps({field: given}))
        command = next(name for name, c in cli._COMMANDS.items() if field in c.fields)  # one that reads it
        assert cli.main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {field} must be finite, got {given!r}"]

    def test_parse_leaves_out_dir_to_run(self, tmp_path):
        out_dir = tmp_path / "fresh" / "nested"
        config = cli.parse_config(
            ["solve", "--preset", "hydrostatic", "--T", "0.04", "--out-dir", str(out_dir)]
        )
        assert not (tmp_path / "fresh").exists()
        assert cli.run(config) == 0
        assert (out_dir / "monitor.csv").is_file()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--preset", "taylor-green", "--L", "100"],
            ["lp-analyze", "--n", "64", "--L", "30"],
            ["lp-analyze", "--n", "64", "--L", "20"],
            ["solve", "--n", "16", "--data", "random"],
            ["probe", "--preset", "taylor-green", "--n", "16"],
        ],
    )
    def test_grid_too_coarse_for_synthesized_data_exits_2(self, tmp_path, capsys, argv):
        # q_max < 2: no dyadic partition at all, or one on which every synthesized field is zero
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: grid n=") and "too coarse" in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--L", "1e-320", "--T", "0.001"],
            ["lp-analyze", "--L", "1e-200"],
        ],
    )
    def test_grid_with_overflowing_wavenumbers_exits_2(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: grid n=64, L=") and "squared wavenumbers overflow" in line
        assert list(tmp_path.iterdir()) == []

    def test_eps_values_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        argv = ["probe", "--preset", "taylor-green", "--n", "32", "--T", "0.004", "--eps", "1e-3", "1.0000001e-3"]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "config error: eps values 0.001, 0.0010000001 share a probe_eps<eps:g>.csv file name"
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_under_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["solve", "--out-dir", str(blocker / "sub")]) == 2
        assert "config error: out_dir" in capsys.readouterr().err


# Every flag: (flag, its arguments, the field it sets, the value expected
# there).  "{tmp}" stands for the test's tmp_path.
_FLAGS = {
    entry[0]: entry
    for entry in [
        ("--preset", ["hydrostatic"], "preset", "hydrostatic"),
        ("--out-dir", ["{tmp}/other"], "out_dir", "{tmp}/other"),
        ("--n", ["32"], "n", 32),
        ("--L", ["3.5"], "L", 3.5),
        ("--r", ["1.25"], "r", 1.25),
        ("--seed", ["7"], "seed", 7),
        ("--amplitude", ["0.5"], "amplitude", 0.5),
        ("--theta-amplitude", ["0.25"], "theta_amplitude", 0.25),
        ("--data", ["random"], "data", "random"),
        ("--T", ["0.5"], "T", 0.5),
        ("--dt", ["2e-3"], "dt", 2e-3),
        ("--s", ["0.5"], "s", 0.5),
        ("--p", ["2"], "p", "2"),
        ("--q", ["2"], "q", "2"),
        ("--input", ["{tmp}/in.snap"], "input", "{tmp}/in.snap"),
        ("--no-buoyancy", [], "buoyancy", False),
        ("--C", ["2.5"], "C", 2.5),
        ("--n-max", ["5"], "n_max", 5),
        ("--tol", ["1e-8"], "tol", 1e-8),
        ("--theta-lag", [], "theta_lag", True),
        ("--estimate", ["lemma2.1"], "estimate", "lemma2.1"),
        ("--quick", [], "quick", True),
        ("--P", ["16"], "P", 16.0),
        ("--Q", ["8"], "Q", 8.0),
        ("--S", ["3.5"], "S", 3.5),
        ("--a0", ["0.02"], "a0", 0.02),
        ("--eps", ["1e-3", "1e-4"], "eps", (1e-3, 1e-4)),
    ]
}
# the flags of each command besides --config and --out-dir, which all take
_STATE_FLAGS = ["--preset", "--n", "--L", "--r", "--seed", "--amplitude", "--theta-amplitude", "--data"]
_COMMAND_FLAGS = {
    "lp-analyze": ["--n", "--L", "--r", "--seed", "--amplitude", "--s", "--p", "--q", "--input"],
    "solve": _STATE_FLAGS + ["--T", "--dt", "--no-buoyancy", "--C"],
    "iterate": _STATE_FLAGS + ["--T", "--dt", "--n-max", "--tol", "--theta-lag"],
    "verify": ["--n", "--r", "--estimate", "--quick"],
    "thresholds": _STATE_FLAGS + ["--P", "--Q", "--S", "--C", "--a0"],
    "probe": _STATE_FLAGS + ["--T", "--dt", "--eps"],
}
_BASE_ARGS = {"verify": ["--estimate", "lemma2.5"]}


def _base_argv(command, tmp_path):
    (tmp_path / "in.snap").write_text("")  # --input only has to name a file
    return [command, "--out-dir", str(tmp_path)] + _BASE_ARGS.get(command, [])


def test_parser_offers_the_listed_flags():
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {
        command: set(parser._option_string_actions) - {"-h", "--help"} for command, parser in sub.choices.items()
    }
    assert offered == {command: {"--config", "--out-dir", *own} for command, own in _COMMAND_FLAGS.items()}
    assert sum(map(len, offered.values())) == 74


@pytest.mark.parametrize(
    "command,flag,args,field,expected",
    [
        pytest.param(command, *_FLAGS[flag], id=f"{command} {flag}")
        for command, own in _COMMAND_FLAGS.items()
        for flag in ["--out-dir"] + own
    ],
)
def test_every_flag_sets_its_field(tmp_path, command, flag, args, field, expected):
    def fill(x):
        return x.replace("{tmp}", str(tmp_path)) if isinstance(x, str) else x

    argv = _base_argv(command, tmp_path)
    config = cli.parse_config(argv + [flag] + [fill(a) for a in args])
    assert getattr(config, field) == fill(expected)
    assert getattr(cli.parse_config(argv), field) != fill(expected)


@pytest.mark.parametrize(
    "command,flag",
    [
        pytest.param(command, flag, id=f"{command} {flag}")
        for command, own in _COMMAND_FLAGS.items()
        for flag in sorted({f for flags in _COMMAND_FLAGS.values() for f in flags} - set(own))
    ],
)
def test_flag_of_another_command_exits(tmp_path, capsys, command, flag):
    # among them the state flags that verify and lp-analyze do not take
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(_base_argv(command, tmp_path) + [flag] + _FLAGS[flag][1])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_config_file_sets_only_the_fields_its_command_reads(tmp_path):
    cfg = tmp_path / "run.json"
    accepted = set()
    for command in cli.COMMANDS:
        for f in dataclasses.fields(cli.RunConfig):
            if f.name in ("command", "preset"):
                continue  # chosen on the command line
            cfg.write_text(json.dumps({f.name: f.default}))
            try:
                cli.parse_config(_base_argv(command, tmp_path) + ["--config", str(cfg)])
            except cli.ConfigError as err:
                if f"{command} reads no config field {f.name!r}" in err.problems:
                    continue
            accepted.add((command, f.name))
    assert accepted == {
        (command, field)
        for command, own in _COMMAND_FLAGS.items()
        for field in {"out_dir"} | {_FLAGS[flag][2] for flag in own} - {"preset"}
    }
    assert len(accepted) == 64


@pytest.mark.parametrize(
    "command,key",
    [("verify", "seed"), ("verify", "L"), ("verify", "preset"), ("solve", "n_max"), ("lp-analyze", "data")],
)
def test_config_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: cli.RunConfig.__dataclass_fields__[key].default}))
    argv = _base_argv(command, tmp_path) + ["--config", str(cfg)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {command} reads no config field {key!r}"]


# Base runs for the dead-flag test: n = 64 (at n = 32 the synthesized data
# fill one block, whatever --r says) and short T, random data (so that --seed
# matters), the quick corpus, and the README thresholds data (every formula
# in its domain).  That data sets every field a preset sets, so the
# thresholds --preset row starts from the defaults instead.
_RUN_BASES = {
    "lp-analyze": [],
    "solve": ["--T", "0.004", "--data", "random"],
    "iterate": ["--T", "0.004", "--data", "random", "--n-max", "3", "--tol", "1e-30"],
    "verify": ["--estimate", "lemma2.5", "--quick"],
    "thresholds": [
        "--data", "random", "--amplitude", "0.002", "--theta-amplitude", "0.002", "--seed", "1", "--C", "2.7"
    ],
    "probe": ["--T", "0.004", "--data", "random", "--eps", "1e-3"],
}
_PRESET_BASES = {"thresholds": ["--C", "2.7"]}
# a value no base run has (a flag given twice takes its last value); a switch
# the base run gives is dropped instead
_CHANGED = {flag: args for flag, args, _, _ in _FLAGS.values()} | {
    "--config": ["{tmp}/run.json"],
    "--out-dir": ["{run}/other"],
    "--data": ["taylor-green"],
    "--T": ["0.006"],
    "--n-max": ["4"],
    "--tol": ["0.1"],
    "--estimate": ["lemma2.2.1"],
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_no_flag_is_dead(tmp_path, capsys, monkeypatch, command):
    """Changing any flag a command takes changes its exit code, its stdout or
    stderr, or a file it writes."""
    # verify without --quick runs the default corpus; one seed at n = 64 keeps it short
    monkeypatch.setattr(harness, "CorpusSpec", partial(harness.CorpusSpec, seeds=(0,), resolutions=(64,)))
    fileio.write_snapshot(tmp_path / "in.snap", synthesize_holder_field(make_grid(32), 1.5, 1.0, 3), "theta", 0.0)
    (tmp_path / "run.json").write_text(json.dumps({"r": 1.25}))
    outcomes = {}

    def outcome(argv):
        if tuple(argv) not in outcomes:
            run = tmp_path / f"run{len(outcomes)}"
            given = [a.replace("{tmp}", str(tmp_path)).replace("{run}", str(run)) for a in argv]
            code = cli.main([command, "--out-dir", str(run / "out"), *given])
            files = {str(p.relative_to(run)): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}
            outcomes[tuple(argv)] = code, capsys.readouterr(), files
        return outcomes[tuple(argv)]

    for flag in ["--config", "--out-dir"] + _COMMAND_FLAGS[command]:
        base = _PRESET_BASES.get(command, _RUN_BASES[command]) if flag == "--preset" else _RUN_BASES[command]
        if flag in base and not _CHANGED[flag]:
            changed = [a for a in base if a != flag]
        else:
            changed = base + [flag] + _CHANGED[flag]
        assert outcome(base) != outcome(changed), flag


@pytest.mark.parametrize("argv", [["solve", "--s", "3"], ["thresholds", "--theta", "0.5"]])
def test_abbreviated_flag_exits_2(tmp_path, capsys, argv):
    # --s would abbreviate --seed, --theta --theta-amplitude
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
_CONFIG_KEYS = st.sampled_from(sorted(cli.RunConfig.__dataclass_fields__) + ["viscosity"])


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(cli.COMMANDS),
    payload=st.dictionaries(_CONFIG_KEYS, _JSON_VALUES, max_size=5) | _JSON_VALUES,
)
def test_fuzzed_config_file_gives_config_or_config_error(tmp_path_factory, command, payload):
    out_dir = tmp_path_factory.mktemp("fuzz")
    cfg = out_dir / "run.json"
    cfg.write_text(json.dumps(payload))
    try:
        config = cli.parse_config([command, "--config", str(cfg), "--out-dir", str(out_dir)])
    except cli.ConfigError:
        return
    assert isinstance(config, cli.RunConfig)


class TestRun:
    def test_verify_writes_report(self, tmp_path):
        config = cli.parse_config(
            ["verify", "--estimate", "lemma2.5", "--quick", "--n", "32",
             "--out-dir", str(tmp_path)]
        )
        assert cli.run(config) == 0
        payload = json.loads((tmp_path / "estimate_lemma2_5.json").read_text())
        assert payload["name"] == "lemma2.5"
        assert payload["c_emp"] > 0
        summary = (tmp_path / "estimates_summary.csv").read_text().splitlines()
        assert summary[0].startswith("estimate,")
        assert summary[1].startswith("lemma2.5,")

    def test_solve_hydrostatic_summary(self, tmp_path, capsys):
        config = cli.parse_config(
            ["solve", "--preset", "hydrostatic", "--T", "0.2", "--out-dir", str(tmp_path)]
        )
        assert cli.run(config) == 0
        out = capsys.readouterr().out
        assert "bkm_integral=" in out and "verdict=FINITE" in out
        bkm = float(out.split("bkm_integral=")[1].split()[0])
        assert bkm <= 1e-8
        rows = (tmp_path / "monitor.csv").read_text().splitlines()
        assert rows[0] == "t,grad_u_inf,bkm_integral,theta_r,u_r,div_residual"
        assert len(rows) > 2

    @pytest.mark.parametrize("C", [None, "1.0"])
    def test_solve_writes_verdict(self, tmp_path, capsys, C):
        argv = ["solve", "--preset", "taylor-green", "--n", "32", "--T", "0.01",
                "--out-dir", str(tmp_path)]
        config = cli.parse_config(argv + ([] if C is None else ["--C", C]))
        assert cli.run(config) == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert f"verdict={verdict['verdict']}" in capsys.readouterr().out
        legs = [verdict["theta_envelope"], verdict["u_envelope"]]
        if C is None:
            assert legs == [None, None]
        else:
            for leg in legs:
                assert set(leg) == {"passed", "min_margin", "worst_time"}
                assert leg["passed"] is True
                assert leg["worst_time"] > 0.0

    def test_solve_cfl_violation_exit_code(self, tmp_path):
        config = cli.parse_config(
            ["solve", "--preset", "taylor-green", "--T", "1.0", "--dt", "0.5",
             "--out-dir", str(tmp_path)]
        )
        assert cli.run(config) == 1

    def test_thresholds_domain_error_names_formula(self, tmp_path, capsys):
        config = cli.parse_config(
            ["thresholds", "--data", "random", "--amplitude", "1.0",
             "--theta-amplitude", "1.0", "--C", "1.0", "--a0", "0.02",
             "--out-dir", str(tmp_path)]
        )
        assert cli.run(config) == 2
        assert "T1_1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--preset", "taylor-green", "--T", "0.002", "--L", "inf"],
            ["solve", "--preset", "taylor-green", "--T", "0.002", "--amplitude", "nan"],
            ["solve", "--preset", "taylor-green", "--T", "0.002", "--C", "nan"],
            ["lp-analyze", "--s", "nan"],
            ["probe", "--preset", "taylor-green", "--T", "0.02", "--eps", "1e-4", "inf"],
            ["thresholds", "--data", "random", "--amplitude", "0.002", "--theta-amplitude", "0.002",
             "--seed", "1", "--C", "0"],
            ["thresholds", "--data", "random", "--amplitude", "0.002", "--theta-amplitude", "0.002",
             "--seed", "1", "--C", "-2.7"],
            ["solve", "--preset", "taylor-green", "--T", "0.002", "--C", "0"],
            ["solve", "--preset", "taylor-green", "--T", "0.002", "--C", "-1"],
            *(
                ["thresholds", "--data", "random", "--amplitude", "0.002", "--theta-amplitude", "0.002",
                 "--seed", "1", "--C", "2.7", flag, value]
                for flag, value in (("--P", "0"), ("--Q", "-3"), ("--a0", "0"), ("--S", "-1"))
            ),
        ],
    )
    def test_bad_number_exits_2_with_one_line(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ")
        if argv[-2] in ("--P", "--Q", "--a0", "--S"):
            assert f"{argv[-2][2:]} must be positive" in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--preset", "taylor-green", "--n", "64", "--T", "0.001", "--theta-amplitude", "1e6"],
            ["solve", "--preset", "taylor-green", "--n", "32", "--T", "0.001", "--amplitude", "1e8"],
        ],
    )
    def test_large_data_reaches_the_solver_guards(self, tmp_path, capsys, argv):
        # valid mean-zero data, only large: no mean-zero ValueError
        code = cli.main(argv + ["--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert (code, err) == (0, []) or (code == 1 and len(err) == 1 and err[0].startswith("numerical abort: "))

    @pytest.mark.parametrize("s", ["400", "-400"])
    def test_norm_overflow_is_a_numerical_abort(self, tmp_path, capsys, s):
        assert cli.main(["lp-analyze", "--r", "0.5", "--s", s, "--out-dir", str(tmp_path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical abort: ") and f"s={s}" in line and "block q=" in line

    @pytest.mark.parametrize(
        "estimate, r, domain", [("eq4.18", "2.5", "1 < r < 2"), ("lemma2.2.3", "0.5", "r > 1")]
    )
    def test_quick_exponent_outside_the_domain_exits_2(self, tmp_path, capsys, estimate, r, domain):
        argv = ["verify", "--estimate", estimate, "--quick", "--r", r, "--n", "32"]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and domain in line
        assert list(tmp_path.iterdir()) == []

    def test_thresholds_success(self, tmp_path, capsys):
        config = cli.parse_config(
            ["thresholds", "--data", "random", "--amplitude", "0.002",
             "--theta-amplitude", "0.002", "--seed", "1", "--C", "2.7",
             "--out-dir", str(tmp_path)]
        )
        assert cli.run(config) == 0
        assert "t_star=" in capsys.readouterr().out
        payload = json.loads((tmp_path / "thresholds.json").read_text())
        assert payload["t_star"] > 0

    def test_thresholds_json_is_strict(self, tmp_path, capsys):
        # zero theta data sends T2_4 to infinity; the artifact spells it "inf"
        argv = ["thresholds", "--data", "random", "--amplitude", "0.002", "--theta-amplitude", "0",
                "--seed", "1", "--C", "2.7", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        payload = json.loads((tmp_path / "thresholds.json").read_text(), parse_constant=_reject_constant)
        assert payload["t2"][-1] == "inf"

    def test_iterate_preset(self, tmp_path, capsys):
        config = cli.parse_config(
            ["iterate", "--preset", "small-data-iteration", "--out-dir", str(tmp_path)]
        )
        assert cli.run(config) == 0
        out = capsys.readouterr().out
        assert "contracting=True" in out
        rows = (tmp_path / "iterations.csv").read_text().splitlines()
        assert rows[0] == "n,cauchy_gap_theta,cauchy_gap_u,ratio"

    def test_lp_analyze(self, tmp_path):
        config = cli.parse_config(
            ["lp-analyze", "--n", "64", "--r", "1.5", "--seed", "3",
             "--out-dir", str(tmp_path)]
        )
        assert cli.run(config) == 0
        payload = json.loads((tmp_path / "besov_report.json").read_text())
        assert set(payload) == {"s", "p", "q", "blocks", "value", "homogeneous_value"}

    def test_probe_outputs(self, tmp_path, capsys):
        config = cli.parse_config(
            ["probe", "--preset", "taylor-green", "--T", "0.02", "--dt", "2e-3",
             "--eps", "1e-4", "--out-dir", str(tmp_path)]
        )
        assert cli.run(config) == 0
        assert (tmp_path / "probe_eps0.0001.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            config = cli.parse_config(
                ["solve", "--preset", "taylor-green", "--T", "0.02",
                 "--seed", "5", "--out-dir", str(out_dir)]
            )
            assert cli.run(config) == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            )
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_write_json_spells_non_finite_floats(tmp_path):
    path = tmp_path / "report.json"
    data = {"a": [1.5, float("inf"), (float("-inf"), np.float64("nan"))], "b": {"c": float("nan"), "d": None}}
    fileio.write_json(path, SimpleNamespace(to_dict=lambda: data))
    payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert payload == {"a": [1.5, "inf", ["-inf", "nan"]], "b": {"c": "nan", "d": None}}


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path, grid64):
        f = synthesize_holder_field(grid64, 1.5, 1.0, 11)
        path = tmp_path / "field.snap"
        fileio.write_snapshot(path, f, "theta", 0.25)
        back, header = fileio.read_snapshot(path)
        assert header == {"n": 64, "L": 2 * np.pi, "name": "theta", "t": 0.25}
        assert linf_norm(back - f) < 1e-12 * linf_norm(f)

    def test_truncated_snapshot_names_byte_counts(self, tmp_path, grid64):
        path = tmp_path / "field.snap"
        fileio.write_snapshot(path, synthesize_holder_field(grid64, 1.5, 1.0, 14), "theta", 0.0)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 1000])
        with pytest.raises(fileio.SnapshotError, match=r"expected 32768 bytes .* found 31768"):
            fileio.read_snapshot(path)

    def test_lp_analyze_on_truncated_snapshot_exits_2(self, tmp_path, grid64, capsys):
        path = tmp_path / "field.snap"
        fileio.write_snapshot(path, synthesize_holder_field(grid64, 1.5, 1.0, 15), "theta", 0.0)
        path.write_bytes(path.read_bytes()[:-8])
        assert cli.main(["lp-analyze", "--input", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "expected 32768 bytes" in capsys.readouterr().err

    def test_lp_analyze_on_a_grid_without_partition_exits_2(self, tmp_path, capsys):
        grid = make_grid(64, 100.0)
        path = tmp_path / "field.snap"
        field = SpectralField.from_values(grid, np.sin(2 * np.pi * grid.x1 / 100.0))
        fileio.write_snapshot(path, field, "theta", 0.0)
        assert cli.main(["lp-analyze", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("input error: ") and "too coarse for a dyadic partition" in line

    def test_lp_analyze_on_a_grid_with_overflowing_wavenumbers_exits_2(self, tmp_path, capsys):
        path = tmp_path / "field.snap"
        path.write_bytes(json.dumps({"n": 16, "L": 1e-200}).encode() + b"\n" + bytes(8 * 16 * 16))
        assert cli.main(["lp-analyze", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("input error: ") and "squared wavenumbers overflow" in line

    def test_infinite_box_length_is_a_malformed_header(self, tmp_path):
        path = tmp_path / "field.snap"
        path.write_bytes(b'{"n": 16, "L": Infinity}\n' + bytes(8 * 16 * 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fileio.SnapshotError, match="malformed header"):
                fileio.read_snapshot(path)

    @pytest.mark.parametrize(
        "header", [{"n": 32.9, "L": 6.28}, {"n": "32", "L": 6.28}, {"n": 32, "L": "6.28"}, {"n": 32, "L": True}]
    )
    def test_header_types_are_not_coerced(self, tmp_path, capsys, header):
        path = tmp_path / "field.snap"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * 32 * 32))
        assert cli.main(["lp-analyze", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("input error: ") and "malformed header" in line

    def test_lp_analyze_on_missing_input_exits_2(self, tmp_path):
        missing = tmp_path / "absent.snap"
        assert cli.main(["lp-analyze", "--input", str(missing), "--out-dir", str(tmp_path)]) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        header=st.dictionaries(
            st.sampled_from(["n", "L", "name"]),
            st.sampled_from([16, 32, 24]) | st.integers(-40, 2**40) | st.floats() | st.text(max_size=4),
            max_size=3,
        ),
        payload=st.binary(min_size=8 * 16 * 16, max_size=8 * 16 * 16) | st.binary(max_size=4096),
        raw_header=st.none() | st.binary(max_size=20),
    )
    def test_fuzzed_snapshot_reads_or_raises_snapshot_error(self, tmp_path_factory, header, payload, raw_header):
        path = tmp_path_factory.mktemp("snap") / "field.snap"
        first = raw_header if raw_header is not None else json.dumps(header).encode()
        path.write_bytes(first + b"\n" + payload)
        try:
            field, _ = fileio.read_snapshot(path)
        except fileio.SnapshotError:
            return
        assert len(payload) == 8 * field.grid.n**2

    def test_header_is_single_json_line(self, tmp_path, grid64):
        f = synthesize_holder_field(grid64, 1.5, 1.0, 12)
        path = tmp_path / "field.snap"
        fileio.write_snapshot(path, f, "theta", 0.0)
        first_line = path.read_bytes().split(b"\n", 1)[0]
        json.loads(first_line)
