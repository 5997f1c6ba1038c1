"""CLI behavior: config resolution, exit codes, manifests."""

import argparse
import dataclasses
import hashlib
import json
import shlex
import shutil
from pathlib import Path

import pytest

from mcni.cli import (COMMANDS, EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME,
                      build_parser, main, resolve_config)
from mcni.experiments import ConfigError, RiskCovConfig, run_riskcov
from mcni.runio import manifest_digest

DATASETS = Path(__file__).resolve().parent.parent / "datasets"

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


def test_every_option_sets_a_field_of_its_command():
    """Each dedicated flag is read as the config field of the same name."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS)
    for command, parser in sub.choices.items():
        names = {f.name for f in dataclasses.fields(COMMANDS[command][0])}
        dests = {a.dest for a in parser._actions
                 if not isinstance(a, argparse._HelpAction)}
        assert dests - {"config", "set"} <= names, command
        assert "outdir" in dests


def test_resolve_config_does_not_validate():
    # the runner validates; resolving an invalid config is not an error yet
    assert resolve(["toy", "--set", "epochs=0"]).epochs == 0


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


CONFIG_ERRORS = [
    ("benchmark", "weight_decay_grid=1e-3,-1e-5"),
    ("benchmark", "noise_grid=-0.01"),
    ("benchmark", "alpha_init_grid=0.01,-0.05"),
    ("benchmark", "dropout_grid=0.1,1.0"),
    ("benchmark", "dropout_grid=-0.1"),
    ("benchmark", "hidden="),
    ("benchmark", "activation=gelu"),
    ("benchmark", "split_fractions=0.5,0.5"),
    ("benchmark", "split_fractions=0.6,0.5,-0.1"),
    ("benchmark", "split_fractions=0.5,0.25,0.2"),
    ("benchmark", "weight_decay_grid=0.01,inf"),
    ("benchmark", "families=deterministic,deterministic"),
    ("toy", "activation=gelu"),
    ("toy", "alpha_penalty_lambda=-1"),
    ("toy", "seeds=0,1,0"),
    ("toy", "passes=1"),
    ("toy", "lr=inf"),
    ("toy", "lr=nan"),
    ("noise-sweep", "activation=gelu"),
    ("noise-sweep", "hidden="),
    ("noise-sweep", "noise_level=-0.1"),
    ("noise-sweep", "lr=0"),
    ("noise-sweep", "batch_size=0"),
    ("noise-sweep", "seeds=2,2"),
    ("noise-sweep", "lr=inf"),
    ("noise-sweep", "noise_level=inf"),
    ("noise-sweep", "sigmas=0,inf"),
    ("riskcov", "coverage_grid=0.5,0.9"),
    ("riskcov", "coverage_grid=0,1.0"),
    ("riskcov", "coverage_grid=0.5,1.5"),
    ("bench-time", "families="),
    ("bench-time", "families=noise_fixed,noise_fixed"),
    ("bench-time", "hidden="),
    ("bench-time", "input_dim=0"),
    ("bench-time", "noise_level=-0.1"),
    ("bench-time", "dropout_p=1.0"),
    ("gpcheck", "seeds="),
    ("gpcheck", "seeds=0,0"),
    ("gpcheck", "widths="),
    ("gpcheck", "bias_std=inf"),
    ("gpcheck", "bias_std=nan"),
    ("gpcheck", "probes=nan,1;0.5,0.5"),
    ("gpcheck", "probes=1,-inf;0.5,0.5"),
]
NEEDED = {"benchmark": ["--data", "absent.csv"],
          "riskcov": ["--pred-file", "p.csv", "--unc-file", "u.csv"]}


@pytest.mark.parametrize("command,setting", CONFIG_ERRORS)
def test_config_error_exits_2_before_writing(tmp_path, capsys, command, setting):
    outdir = tmp_path / "never"
    code = main([command, "--outdir", str(outdir), *NEEDED.get(command, []),
                 "--set", setting])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_empty_outdir_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                  command):
    monkeypatch.chdir(tmp_path)
    for empty in (["--outdir", ""], ["--set", "outdir="]):
        code = main([command, *empty, *NEEDED.get(command, [])])
        assert code == EXIT_CONFIG
        assert "outdir must not be empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_gpcheck_overflow_exits_4_without_writing_results(tmp_path, capsys):
    # an overflowing kernel or covariance makes its relative deviation
    # non-finite, which the skeleton's metrics check rejects
    for nonlinearity, probes in (("relu", "1e308,1e308;1,1"),
                                 ("identity", "1e160,1e160;1,1")):
        outdir = tmp_path / nonlinearity
        code = main(["gpcheck", "--outdir", str(outdir), "--set", "n_samples=1000",
                     "--set", "n_networks=50", "--set", "widths=8",
                     "--set", "width=8", "--set", f"probes={probes}",
                     "--nonlinearity", nonlinearity])
        assert code == EXIT_RUNTIME
        assert "metrics not finite" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []


# each run's arguments, and the error its diverged fit must stop with
DIVERGING_RUNS = {
    "benchmark": (["--data", str(DATASETS / "synth_regression.csv"),
                   "--set", "lr_grid=1e300", "--set", "max_epochs=2",
                   "--set", "families=deterministic,noise_fixed",
                   "--set", "noise_grid=0.01", "--set", "weight_decay_grid=0",
                   "--passes", "5"], "metrics not finite"),
    "toy": (["--set", "lr=1e300", "--set", "epochs=2", "--seeds", "0",
             "--passes", "3", "--set", "n_points=20"], "metrics not finite"),
    "noise-sweep": (["--set", "lr=1e300", "--set", "epochs=2",
                     "--set", "passes=3", "--seeds", "0"],
                    "must be probability rows"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(DIVERGING_RUNS))
def test_non_finite_metrics_exit_4_without_writing(tmp_path, capsys, command):
    outdir = tmp_path / "out"
    args, error = DIVERGING_RUNS[command]
    code = main([command, "--outdir", str(outdir), *args])
    assert code == EXIT_RUNTIME
    assert error in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


def test_non_finite_config_error_names_the_value(tmp_path, capsys):
    for setting, name in (("lr=inf", "lr"), ("sigmas=0,inf", "sigmas[1]")):
        code = main(["noise-sweep", "--outdir", str(tmp_path / "never"),
                     "--set", setting])
        assert code == EXIT_CONFIG
        assert f"must be finite: {name}" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_empty_split_exits_3_without_writing_results(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(["benchmark", "--data", str(DATASETS / "synth_regression.csv"),
                 "--outdir", str(outdir), "--set", "split_fractions=1.0,0.0,0.0"])
    assert code == EXIT_DATA
    assert "validation set empty" in capsys.readouterr().err
    assert not (outdir / "leaderboard.csv").exists()
    assert not (outdir / "metrics.json").exists()


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
    assert "non-finite cell at row 2, column 'y'" in capsys.readouterr().err


def run_riskcov_cli(tmp_path, pred_text, unc_text):
    (tmp_path / "pred.csv").write_text(pred_text)
    (tmp_path / "unc.csv").write_text(unc_text)
    return main(["riskcov", "--pred-file", str(tmp_path / "pred.csv"),
                 "--unc-file", str(tmp_path / "unc.csv"),
                 "--outdir", str(tmp_path / "rc"),
                 "--set", "coverage_grid=0.5,1.0"])


def test_riskcov_skips_blank_lines_like_load_csv(tmp_path):
    code = run_riskcov_cli(tmp_path, "pred,target\n1.0,1.0\n2.0,2.5\n\n",
                           "uncertainty\n0.1\n\n0.2\n\n")
    assert code == EXIT_OK
    metrics = json.loads((tmp_path / "rc" / "metrics.json").read_text())
    assert metrics["n_points"] == 2


def test_riskcov_header_only_file_exits_3(tmp_path, capsys):
    code = run_riskcov_cli(tmp_path, "pred,target\n1.0,1.0\n", "uncertainty\n")
    assert code == EXIT_DATA
    assert "no data rows" in capsys.readouterr().err


def test_riskcov_repeated_header_name_exits_3(tmp_path, capsys):
    code = run_riskcov_cli(tmp_path, "pred,target\n1.0,1.0\n2.0,2.0\n",
                           "uncertainty,uncertainty\n0.1,0.2\n0.3,0.4\n")
    assert code == EXIT_DATA
    assert "repeated column names ['uncertainty']" in capsys.readouterr().err


def test_unwritable_outdir_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("plain file where a directory should go\n")
    code = main(["toy", "--outdir", str(blocker), *TINY_TOY])
    assert code == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


def test_unwritable_manifest_exits_4(tmp_path, capsys):
    outdir = tmp_path / "rc"
    (outdir / "manifest.json").mkdir(parents=True)
    code = run_riskcov_cli(tmp_path, "pred,target\n1.0,1.0\n2.0,2.5\n",
                           "uncertainty\n0.1\n0.2\n")
    assert code == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err
    assert (outdir / "manifest.json").is_dir()


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


def test_library_run_writes_manifest_and_returns_cli_digest(tmp_path, capsys):
    (tmp_path / "pred.csv").write_text("pred,target\n1.0,1.0\n2.0,2.5\n")
    (tmp_path / "unc.csv").write_text("uncertainty\n0.1\n0.2\n")
    cfg = RiskCovConfig(pred_file=str(tmp_path / "pred.csv"),
                        unc_file=str(tmp_path / "unc.csv"),
                        outdir=str(tmp_path / "rc"))
    out = run_riskcov(cfg)
    manifest = out.files["manifest.json"]
    assert list(out.files) == ["curve.csv", "metrics.json", "manifest.json"]
    assert manifest_digest(json.loads(manifest.read_text())) == out.digest
    manifest.unlink()
    assert main(["riskcov", "--pred-file", cfg.pred_file,
                 "--unc-file", cfg.unc_file, "--outdir", cfg.outdir]) == EXIT_OK
    assert digest_line(capsys.readouterr().out).split()[-1] == out.digest
    assert manifest.exists()


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


# ---------------------------------------------------------------------------
# golden digests

GOLDEN_ARGS = {
    "toy": "--set seeds=0,1 --set epochs=30 --set passes=50 --set n_points=60 "
           "--set hidden=20",
    "benchmark": "--data synth_regression.csv --seed 7 --set lr_grid=0.005 "
                 "--set weight_decay_grid=0.1,1e-5,1e-9 --set dropout_grid=0.01,0.05 "
                 "--set noise_grid=0.01,0.05 --set alpha_init_grid=0.01,0.05 "
                 "--set max_epochs=12 --set patience=2 --set passes=20",
    "noise-sweep": "--set seeds=0 --set epochs=20 --set passes=20 --set n_train=60",
    "riskcov": "--pred-file pred.csv --unc-file unc.csv",
    "bench-time": "--set reps=3 --set t_list=1,10",
    "gpcheck": "--set n_samples=20000 --set n_networks=200 --set width=256 "
               "--set widths=64,128",
}
GOLDEN_DIGESTS = {
    "toy": "c3d8d7d2774c307a91b5fb3018025d6220d169baaa9ca4d4074d298787d553d9",
    "benchmark": "e601db61af2643ef7de4fae3e2f9b6b502fd8f374f65bb228c7c058cc907ad35",
    "noise-sweep": "8b2b9f24c3525526a452a69a9a0ecb1ca2a8f9a3eb392b0b552cf2baab59145d",
    "riskcov": "200a8b791f26f211740e8ea2dc9e1f4e1ba2aa8ecfff145417bbc211fc6b595e",
    "bench-time": "74607196c7b612f5481fb3614fe96ef84d61e43b7305dbc3efd3dec35141d21f",
    "gpcheck": "19e1ad8f2bfff4a80763024ab7f2455dde9ab693e170d8650fcecf2ef0ead551",
}
GOLDEN_LEADERBOARD = "6d3bec1dbd3c4ee5b67ebc4353c18f110570a0261332a0a19248c400c26eaeb3"


def test_golden_manifest_digests(tmp_path, monkeypatch, capsys):
    """All six commands at pinned small configs reproduce recorded digests.

    The configs and digests are BENCH_6.json's ``digests`` records, made
    with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64); another BLAS build may
    round a matmul differently and move them. Each command runs in one
    work directory with the relative outdir ``out/<command>``, so the whole
    manifest except timings is compared, config and input paths included.
    """
    monkeypatch.chdir(tmp_path)
    shutil.copy(DATASETS / "synth_regression.csv", "synth_regression.csv")
    pred, unc = ["pred,target"], ["uncertainty"]
    for i in range(40):
        p = 0.1 * i
        t = p + 0.05 if i % 3 else p - 0.2
        pred.append(f"{p!r},{t!r}")
        unc.append(repr((7 * i % 13) / 13))
    Path("pred.csv").write_text("\n".join(pred) + "\n")
    Path("unc.csv").write_text("\n".join(unc) + "\n")
    digests = {}
    for command, args in GOLDEN_ARGS.items():
        argv = [command, *shlex.split(args), "--outdir", f"out/{command}"]
        assert main(argv) == EXIT_OK, command
        digests[command] = digest_line(capsys.readouterr().out).split()[-1]
    assert digests == GOLDEN_DIGESTS
    leaderboard = Path("out/benchmark/leaderboard.csv").read_bytes()
    assert hashlib.sha256(leaderboard).hexdigest() == GOLDEN_LEADERBOARD
