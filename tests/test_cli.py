"""CLI behavior: config resolution, exit codes, manifests."""

import json

import pytest

from mcni.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME,
                      build_parser, main, resolve_config)
from mcni.experiments import ConfigError

TINY_TOY = ["--set", "n_points=6", "--set", "hidden=4", "--set", "epochs=2",
            "--set", "passes=3", "--seeds", "0"]


def run_toy_cli(outdir, extra=()):
    return main(["toy", "--outdir", str(outdir), *TINY_TOY, *extra])


# ---------------------------------------------------------------------------
# config resolution

def resolve(argv):
    cfg, _ = resolve_config(build_parser().parse_args(argv))
    return cfg


def test_flag_beats_set_beats_config_file(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[toy]\npasses = 7\nn_points = 6\n")
    cfg = resolve(["toy", "--config", str(ini)])
    assert cfg.passes == 7 and cfg.n_points == 6

    cfg = resolve(["toy", "--config", str(ini), "--set", "passes=4"])
    assert cfg.passes == 4

    cfg = resolve(["toy", "--config", str(ini), "--set", "passes=4",
                   "--passes", "3"])
    assert cfg.passes == 3


def test_seed_zero_on_command_line_is_respected():
    cfg = resolve(["benchmark", "--data", "x.csv", "--set", "seed=5",
                   "--seed", "0"])
    assert cfg.seed == 0


def test_set_parses_field_types():
    cfg = resolve(["toy", "--set", "seeds=3,4", "--set", "random_x=true",
                   "--set", "lr=0.25"])
    assert cfg.seeds == (3, 4)
    assert cfg.random_x is True
    assert cfg.lr == 0.25


def test_set_parses_nested_tuples():
    cfg = resolve(["gpcheck", "--set", "probes=1.0,2.0;3.0,4.0"])
    assert cfg.probes == ((1.0, 2.0), (3.0, 4.0))


def test_target_flag_accepts_name_or_index():
    assert resolve(["benchmark", "--data", "d.csv", "--target", "y"]).target == "y"
    assert resolve(["benchmark", "--data", "d.csv", "--target", "2"]).target == 2


def test_random_x_store_true_flag():
    assert resolve(["toy", "--random-x"]).random_x is True
    assert resolve(["toy"]).random_x is False


def test_unknown_set_key_lists_known_options():
    with pytest.raises(ConfigError, match="unknown option 'bogus'"):
        resolve(["toy", "--set", "bogus=1"])


def test_malformed_set_pair():
    with pytest.raises(ConfigError, match="key=value"):
        resolve(["toy", "--set", "passes"])


def test_unparseable_value():
    with pytest.raises(ConfigError, match="bad value for passes"):
        resolve(["toy", "--set", "passes=abc"])


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        resolve(["toy", "--config", "/no/such/file.ini"])


def test_config_file_section_is_per_command(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[benchmark]\npasses = 9\n")
    assert resolve(["toy", "--config", str(ini)]).passes == 500  # untouched


# ---------------------------------------------------------------------------
# exit codes

def test_success_prints_outputs_and_digest(tmp_path, capsys):
    assert run_toy_cli(tmp_path / "run") == EXIT_OK
    out = capsys.readouterr().out
    assert f"wrote {tmp_path / 'run' / 'predictions.csv'}" in out
    assert f"wrote {tmp_path / 'run' / 'manifest.json'}" in out
    assert "manifest digest (timings excluded): " in out
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["command"] == "toy"
    assert manifest["config"]["seeds"] == [0]
    assert set(manifest["outputs"]) == {"predictions.csv", "intervals.csv",
                                        "metrics.json"}


def test_invalid_config_exits_2_before_writing(tmp_path, capsys):
    outdir = tmp_path / "never"
    code = main(["toy", "--outdir", str(outdir), "--set", "epochs=0"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not outdir.exists()


def test_unknown_set_key_exits_2(tmp_path):
    assert main(["toy", "--outdir", str(tmp_path), "--set", "bogus=1"]) == EXIT_CONFIG


def test_missing_data_file_exits_3(tmp_path, capsys):
    code = main(["benchmark", "--data", str(tmp_path / "absent.csv"),
                 "--outdir", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_non_finite_data_cell_exits_3(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("x,y\n1,nan\ninf,2\n")
    code = main(["benchmark", "--data", str(data),
                 "--outdir", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "row 2, column 'y'" in capsys.readouterr().err
    (tmp_path / "unc.csv").write_text("uncertainty\n0.1\n0.2\n")
    code = main(["riskcov", "--pred-file", str(data),
                 "--unc-file", str(tmp_path / "unc.csv"),
                 "--outdir", str(tmp_path / "rc")])
    assert code == EXIT_DATA
    assert "not finite" in capsys.readouterr().err


def test_unwritable_outdir_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("plain file where a directory should go\n")
    code = main(["toy", "--outdir", str(blocker), *TINY_TOY])
    assert code == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# reproducibility through the CLI

def digest_line(captured: str) -> str:
    for line in captured.splitlines():
        if line.startswith("manifest digest"):
            return line
    raise AssertionError("no digest line printed")


def test_rerun_same_outdir_same_digest(tmp_path, capsys):
    assert run_toy_cli(tmp_path / "run") == EXIT_OK
    first = digest_line(capsys.readouterr().out)
    assert run_toy_cli(tmp_path / "run") == EXIT_OK
    second = digest_line(capsys.readouterr().out)
    assert first == second


def test_bench_time_rerun_same_outdir_same_digest(tmp_path, capsys):
    argv = ["bench-time", "--outdir", str(tmp_path / "bt"), "--set", "batch=8",
            "--set", "input_dim=3", "--set", "hidden=4", "--set", "t_list=1,2",
            "--set", "reps=2"]
    assert main(argv) == EXIT_OK
    first = digest_line(capsys.readouterr().out)
    assert main(argv) == EXIT_OK
    second = digest_line(capsys.readouterr().out)
    assert first == second
    # the measured file's hash is kept, outside the digested part
    manifest = json.loads((tmp_path / "bt" / "manifest.json").read_text())
    assert "timing.csv" not in manifest["outputs"]
    assert set(manifest["timings"]["outputs"]) == {"timing.csv"}


def test_rerun_other_outdir_same_data_files(tmp_path):
    assert run_toy_cli(tmp_path / "a") == EXIT_OK
    assert run_toy_cli(tmp_path / "b") == EXIT_OK
    for name in ("predictions.csv", "intervals.csv", "metrics.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_riskcov_end_to_end(tmp_path, capsys):
    (tmp_path / "pred.csv").write_text(
        "pred,target\n1.0,1.0\n2.0,2.5\n3.0,3.0\n4.0,2.0\n")
    (tmp_path / "unc.csv").write_text("uncertainty\n0.1\n0.2\n0.3\n0.4\n")
    code = main(["riskcov", "--pred-file", str(tmp_path / "pred.csv"),
                 "--unc-file", str(tmp_path / "unc.csv"),
                 "--outdir", str(tmp_path / "rc"),
                 "--set", "coverage_grid=0.5,1.0"])
    assert code == EXIT_OK
    lines = (tmp_path / "rc" / "curve.csv").read_text().splitlines()
    assert lines[0] == "coverage,risk"
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "rc" / "manifest.json").read_text())
    assert set(manifest["inputs"]) == {"pred_file", "unc_file"}
    assert "sha256" in manifest["inputs"]["pred_file"]
