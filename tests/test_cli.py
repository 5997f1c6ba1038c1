"""CLI behavior: config resolution, exit codes, manifests."""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shlex
import shutil
from pathlib import Path

import pytest

import mcni.mc
from mcni.cli import (COMMANDS, EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME,
                      _parse_value, build_parser, main, resolve_config)
from mcni.experiments import (_DISTINCT, _RULES, ConfigError, RiskCovConfig,
                              run_riskcov)
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


def text_form(value) -> str:
    """How a user writes a value: ',' between entries, ';' between rows."""
    if isinstance(value, tuple):
        sep = ";" if isinstance(value[0], tuple) else ","
        return sep.join(text_form(v) for v in value)
    return str(value)


def test_every_default_reads_back_from_its_text_form():
    # a tuple entry is read like a lone value: an int entry stays an int
    for cls, _ in COMMANDS.values():
        for f in dataclasses.fields(cls):
            parsed = _parse_value(text_form(f.default), f.default, f.name)
            assert repr(parsed) == repr(f.default), (cls.__name__, f.name)


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


def test_config_file_percent_is_literal(tmp_path, monkeypatch, capsys):
    # an INI value is text like a --set value: no interpolation
    monkeypatch.chdir(tmp_path)
    ini = tmp_path / "cfg.ini"
    ini.write_text("[toy]\noutdir = runs/50%\n")
    assert main(["toy", "--config", str(ini), *TINY_TOY]) == EXIT_OK
    assert (tmp_path / "runs" / "50%" / "manifest.json").exists()
    ini.write_text("[toy]\nlr = %(x)s\n")
    assert main(["toy", "--config", str(ini), "--outdir", "never"]) == EXIT_CONFIG
    assert "bad value for lr" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_config_file_key_is_the_field_name_exactly(tmp_path):
    # a key means what it means in --set, where 'Passes' is not 'passes'
    ini = tmp_path / "cfg.ini"
    ini.write_text("[toy]\nPasses = 3\n")
    with pytest.raises(ConfigError, match="unknown option 'Passes'"):
        resolve(["toy", "--config", str(ini)])


def test_set_value_is_stripped_like_an_ini_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["toy", *TINY_TOY, "--set", "outdir= runs/x "]) == EXIT_OK
    assert (tmp_path / "runs" / "x" / "manifest.json").exists()


def test_set_target_is_stripped():
    cfg = resolve(["benchmark", "--data", "d.csv", "--set", "target= y "])
    assert cfg.target == "y"


def test_config_file_may_start_with_byte_order_mark(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_bytes(b"\xef\xbb\xbf[toy]\npasses = 7\n")
    assert resolve(["toy", "--config", str(ini)]).passes == 7


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_bytes(b"[toy]\noutdir = caf\xe9\n")
    outdir = tmp_path / "never"
    assert main(["toy", "--config", str(ini), "--outdir", str(outdir)]) == EXIT_CONFIG
    assert f"cannot read config file {ini}" in capsys.readouterr().err
    assert not outdir.exists()


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


def test_readme_command_list_names_every_command():
    """README's CLI block lists the commands as `mcni <command>  # ...`."""
    readme = (DATASETS.parent / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^mcni (\S+) +# ", readme, flags=re.MULTILINE)
    assert sorted(listed) == sorted(set(listed)) == sorted(COMMANDS)


# each command's dedicated flags: one added or dropped must show here
DEDICATED_FLAGS = {
    "toy": {"--seeds", "--passes", "--random-x"},
    "benchmark": {"--data", "--target", "--seed", "--passes"},
    "riskcov": {"--pred-file", "--unc-file", "--risk-kind"},
    "noise-sweep": {"--seeds", "--passes"},
    "gpcheck": {"--seeds", "--nonlinearity"},
}


def test_each_command_has_exactly_its_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(DEDICATED_FLAGS)
    for command, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags == {"-h", "--help", "--config", "--set", "--outdir",
                         *DEDICATED_FLAGS[command]}, command


def test_each_flag_parses_like_set():
    """A flag's text goes through the same parser as a --set value."""
    texts = {"seeds": "3,4", "passes": "7", "data": "d.csv", "target": "2",
             "seed": "5", "pred_file": "p.csv", "unc_file": "u.csv",
             "risk_kind": "accuracy", "nonlinearity": "tanh"}
    for command, flags in DEDICATED_FLAGS.items():
        for flag in flags:
            name = flag[2:].replace("-", "_")
            text = texts.get(name, "true")
            given = [flag] if text == "true" else [flag, text]
            assert (resolve([command, *given])
                    == resolve([command, "--set", f"{name}={text}"])
                    != resolve([command])), flag


def test_command_help_shows_docstring_and_flag_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["toy", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "default: 500" in out and "default: (0, 1, 2, 3, 4)" in out
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "Grid-searched regression comparison" in capsys.readouterr().out


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
    ("benchmark", "seed=-1"),
    ("toy", "activation=gelu"),
    ("toy", "alpha_penalty_lambda=-1"),
    ("toy", "seeds=0,1,0"),
    ("toy", "passes=1"),
    ("toy", "lr=inf"),
    ("toy", "lr=nan"),
    ("toy", "seeds=-1"),
    ("noise-sweep", "activation=gelu"),
    ("noise-sweep", "hidden="),
    ("noise-sweep", "noise_level=-0.1"),
    ("noise-sweep", "lr=0"),
    ("noise-sweep", "batch_size=0"),
    ("noise-sweep", "seeds=2,2"),
    ("noise-sweep", "lr=inf"),
    ("noise-sweep", "noise_level=inf"),
    ("noise-sweep", "sigmas=0,inf"),
    ("noise-sweep", "seeds=-3"),
    ("riskcov", "coverage_grid=0.5,0.9"),
    ("riskcov", "coverage_grid=0,1.0"),
    ("riskcov", "coverage_grid=0.5,1.5"),
    ("gpcheck", "seeds="),
    ("gpcheck", "seeds=0,0"),
    ("gpcheck", "seeds=-1"),
    ("gpcheck", "widths="),
    ("gpcheck", "bias_std=inf"),
    ("gpcheck", "bias_std=nan"),
    ("gpcheck", "probes=nan,1;0.5,0.5"),
    ("gpcheck", "probes=1,-inf;0.5,0.5"),
    # an empty entry is an error in every tuple field
    ("benchmark", "lr_grid=0.1,,0.2"),
    ("toy", "seeds=3,4,"),
    ("benchmark", "families=deterministic,,noise_fixed"),
    ("gpcheck", "probes=1,,0.5;0.8,0.6"),
    # a case for each rule of experiments._RULES that no case above sets
    ("benchmark", "lr_grid=0.01,0"),
    ("benchmark", "max_epochs=0"),
    ("benchmark", "val_passes=0"),
    ("benchmark", "patience=-1"),
    ("toy", "epochs=0"),
    ("toy", "n_points=1"),
    ("toy", "dropout_p=1.0"),
    ("noise-sweep", "n_eval=0"),
    ("noise-sweep", "n_train=3"),
    ("noise-sweep", "sigmas=0,-0.1"),
    ("gpcheck", "n_samples=0"),
    ("gpcheck", "width=0"),
    ("gpcheck", "n_networks=1"),
    ("gpcheck", "bias_std=-1"),
]
NEEDED = {"benchmark": ["--data", "absent.csv"],
          "riskcov": ["--pred-file", "p.csv", "--unc-file", "u.csv"]}


@pytest.mark.parametrize("command,setting", CONFIG_ERRORS)
def test_config_error_exits_2_before_writing(tmp_path, capsys, command, setting):
    outdir = tmp_path / "never"
    code = main([command, "--outdir", str(outdir), *NEEDED.get(command, []),
                 "--set", setting])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and setting.partition("=")[0] in err
    assert not outdir.exists()


BAD_FLAGS = [
    ("riskcov", "--risk-kind", "mae"),
    ("gpcheck", "--nonlinearity", "sigmoid"),
    ("toy", "--passes", "abc"),
    ("noise-sweep", "--seeds", "0,x"),
    ("benchmark", "--seed", "1.5"),
]


@pytest.mark.parametrize("command,flag,value", BAD_FLAGS)
def test_bad_flag_value_exits_2_before_writing(tmp_path, capsys, command, flag,
                                                value):
    outdir = tmp_path / "never"
    code = main([command, "--outdir", str(outdir), *NEEDED.get(command, []),
                 flag, value])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and flag[2:].replace("-", "_") in err
    assert not outdir.exists()


# the config fields that have no range rule in experiments._RULES
NO_RULE = {"data", "target", "outdir", "pred_file", "unc_file", "random_x",
           "probes", "split_fractions"}


def rule_table_faults(rules):
    """What is wrong with a range-rule table keyed by field name: a key that
    names no field of any command's config class, a field with neither a
    rule nor a place on NO_RULE, and a key that no CONFIG_ERRORS or
    BAD_FLAGS case sets."""
    names = {f.name for cls, _ in COMMANDS.values()
             for f in dataclasses.fields(cls)}
    tried = ({setting.partition("=")[0] for _, setting in CONFIG_ERRORS}
             | {flag[2:].replace("-", "_") for _, flag, _ in BAD_FLAGS})
    return sorted([f"{key} names no config field" for key in rules
                   if key not in names]
                  + [f"{name} has no rule" for name in names - NO_RULE
                     if name not in rules]
                  + [f"{key} is set by no CLI case" for key in rules
                     if key not in tried])


def test_rule_table_covers_every_field():
    assert rule_table_faults(_RULES) == []
    assert set(_DISTINCT) <= set(_RULES)
    assert not NO_RULE & set(_RULES)
    planted = dict(_RULES)
    planted["n_sample"] = planted.pop("n_samples")
    assert rule_table_faults(planted) == [
        "n_sample is set by no CLI case", "n_sample names no config field",
        "n_samples has no rule"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_empty_outdir_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                  command):
    monkeypatch.chdir(tmp_path)
    for empty in (["--outdir", ""], ["--set", "outdir="]):
        code = main([command, *empty, *NEEDED.get(command, [])])
        assert code == EXIT_CONFIG
        assert "outdir must not be empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_outdir_at_or_under_a_file_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"not a directory\n")
    for outdir in (blocker, blocker / "run"):
        code = main([command, "--outdir", str(outdir), *NEEDED.get(command, [])])
        assert code == EXIT_CONFIG
        assert "cannot create outdir" in capsys.readouterr().err
        assert blocker.read_bytes() == b"not a directory\n"
        assert list(tmp_path.iterdir()) == [blocker]


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_configs_score_nan_beside_finite_best(tmp_path):
    """A grid whose every family has one finite config runs to the end; the
    configs that diverged score no coverage, like every other metric."""
    outdir = tmp_path / "out"
    code = main(["benchmark", "--outdir", str(outdir),
                 "--data", str(DATASETS / "synth_regression.csv"),
                 "--set", "lr_grid=0.001,1e300", "--set", "max_epochs=2",
                 "--set", "families=deterministic,noise_fixed",
                 "--set", "noise_grid=0.01", "--set", "weight_decay_grid=0",
                 "--passes", "5"])
    assert code == EXIT_OK
    best = json.loads((outdir / "metrics.json").read_text())["families"]
    assert {family: entry["lr"] for family, entry in best.items()} == {
        "deterministic": 0.001, "noise_fixed": 0.001}
    lines = (outdir / "leaderboard.csv").read_text().splitlines()
    diverged = [line for line in lines[1:] if ",1e+300," in line]
    assert len(diverged) == 2
    for line in diverged:
        assert line.endswith(",inf,nan,nan,nan,nan"), line


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


def test_unwritable_manifest_exits_4(tmp_path, capsys):
    outdir = tmp_path / "rc"
    (outdir / "manifest.json").mkdir(parents=True)
    code = run_riskcov_cli(tmp_path, "pred,target\n1.0,1.0\n2.0,2.5\n",
                           "uncertainty\n0.1\n0.2\n")
    assert code == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err
    assert (outdir / "manifest.json").is_dir()
    assert [p.name for p in outdir.iterdir()] == ["manifest.json"]


def test_failed_second_output_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    """A stale manifest goes before any output is written, so a run that
    fails part way leaves none, not one that lists another run's files. Its
    outputs are renamed into place only once all are written, so the earlier
    run's curve.csv stays as it was and no temporary file is left."""
    pred, unc = "pred,target\n1.0,1.0\n2.0,2.5\n", "uncertainty\n0.1\n0.2\n"
    manifest = tmp_path / "rc" / "manifest.json"
    assert run_riskcov_cli(tmp_path, pred, unc) == EXIT_OK
    assert manifest.exists()
    curve = (tmp_path / "rc" / "curve.csv").read_bytes()

    def fail(path, obj):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr("mcni.experiments.write_json", fail)
    # other predictions, so a curve.csv of this run would differ
    pred = "pred,target\n3.0,1.0\n2.0,2.5\n"
    for _ in range(2):           # with a stale manifest, then with none
        assert run_riskcov_cli(tmp_path, pred, unc) == EXIT_RUNTIME
        assert "metrics.json" in capsys.readouterr().err
        assert not manifest.exists()
        assert (tmp_path / "rc" / "curve.csv").read_bytes() == curve
        assert sorted(p.name for p in (tmp_path / "rc").iterdir()) == [
            "curve.csv", "metrics.json"]


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
    "gpcheck": "--set n_samples=20000 --set n_networks=200 --set width=256 "
               "--set widths=64,128",
}
GOLDEN_DIGESTS = {
    "toy": "c3d8d7d2774c307a91b5fb3018025d6220d169baaa9ca4d4074d298787d553d9",
    "benchmark": "e601db61af2643ef7de4fae3e2f9b6b502fd8f374f65bb228c7c058cc907ad35",
    "noise-sweep": "8b2b9f24c3525526a452a69a9a0ecb1ca2a8f9a3eb392b0b552cf2baab59145d",
    "riskcov": "200a8b791f26f211740e8ea2dc9e1f4e1ba2aa8ecfff145417bbc211fc6b595e",
    "gpcheck": "81b9183ff373397dfaa70042c85182e4e5d095cdd93d8ee99e7f15b8a0ee2de3",
}
GOLDEN_LEADERBOARD = "6d3bec1dbd3c4ee5b67ebc4353c18f110570a0261332a0a19248c400c26eaeb3"


def test_golden_benchmark_forks_only_for_its_outer_tasks(tmp_path, monkeypatch,
                                                         capsys):
    """At 2 CPUs the golden benchmark forks one child for its fits, and no
    process forks again, although its scoring calls are cut into many
    Monte Carlo blocks here: they run in their fit's process. The digest is
    the golden one. Forks are counted in a file, so a child's count too."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(DATASETS / "synth_regression.csv", "synth_regression.csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(mcni.mc, "_PASS_BUDGET", 10_000)
    log = tmp_path / "forks"
    log.touch()
    real_fork = os.fork

    def logging_fork():
        with open(log, "ab") as fh:
            fh.write(b"x")
        return real_fork()

    monkeypatch.setattr(os, "fork", logging_fork)
    argv = ["benchmark", *shlex.split(GOLDEN_ARGS["benchmark"]),
            "--outdir", "out/benchmark"]
    assert main(argv) == EXIT_OK
    assert digest_line(capsys.readouterr().out).split()[-1] == \
        GOLDEN_DIGESTS["benchmark"]
    manifest = json.loads(Path("out/benchmark/manifest.json").read_text())
    assert manifest["environment"]["worker_processes"] == 2
    assert log.read_bytes() == b"x"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_golden_manifest_digests(tmp_path, monkeypatch, capsys):
    """All five commands at pinned small configs reproduce recorded digests.

    The configs and digests are BENCH_6.json's ``digests`` records (gpcheck's
    is BENCH_29.json's, recorded when the covariance's draws changed), made
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
