"""Configuration parsing, command dispatch, artifact outputs."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boussinesq_lp import cli, fileio
from boussinesq_lp.boussinesq import synthesize_holder_field
from boussinesq_lp.spectral import linf_norm, make_grid


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

    @pytest.mark.parametrize("field,value", [("T", "1"), ("T", True), ("n", 64.0), ("eps", ["a"])])
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

    @pytest.mark.parametrize("field,value", [("p", "x"), ("q", "0.5"), ("seed", -1), ("snapshot_every", 0)])
    def test_out_of_domain_values_rejected(self, tmp_path, field, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({field: value}))
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert any(p.startswith(f"{field} ") for p in err.value.problems)

    def test_parse_leaves_out_dir_to_run(self, tmp_path):
        out_dir = tmp_path / "fresh" / "nested"
        config = cli.parse_config(
            ["solve", "--preset", "hydrostatic", "--T", "0.04", "--out-dir", str(out_dir)]
        )
        assert not (tmp_path / "fresh").exists()
        assert cli.run(config) == 0
        assert (out_dir / "monitor.csv").is_file()

    def test_out_dir_under_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["solve", "--out-dir", str(blocker / "sub")]) == 2
        assert "config error: out_dir" in capsys.readouterr().err


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
