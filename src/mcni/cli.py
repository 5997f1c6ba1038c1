"""Command-line front end.

Subcommands: toy | benchmark | riskcov | noise-sweep | bench-time | gpcheck.

The front end has two jobs: turning argv into a command's config, and
turning the command's exceptions into exit codes. Each subcommand is
declared once, in mcni.experiments.COMMANDS, with its config dataclass and
its run_* function. Values are resolved in order: dataclass defaults, then
the [command] section of an INI config file (--config), then --set
key=value overrides, then dedicated flags, each named after the field it
sets (--pred-file sets pred_file). The run_* function validates the
resolved config before it writes anything, writes the data files and
manifest.json, and returns the manifest digest that is printed last.

Exit codes: 0 success, 2 config error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys

from .data import DataError
from .experiments import COMMANDS, ConfigError
from .gpcheck import NONLINEARITIES
from .metrics import RISK_KINDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_tuple(text: str, template: tuple):
    """Parse comma-separated values; ';' separates rows of nested tuples."""
    text = text.strip()
    if template and isinstance(template[0], tuple):
        rows = [r for r in text.split(";") if r.strip()]
        return tuple(tuple(float(v) for v in row.split(",")) for row in rows)
    if template and isinstance(template[0], str):
        elem = str
    elif template and isinstance(template[0], int):
        elem = int
    else:
        elem = float
    return tuple(elem(v.strip()) for v in text.split(",") if v.strip())


def _parse_value(text: str, default, field_name: str):
    """Interpret text using the field's default value as the type template."""
    try:
        if isinstance(default, bool):
            return _parse_bool(text)
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, tuple):
            return _parse_tuple(text, default)
        if default is None:
            low = text.strip().lower()
            if low in ("", "none"):
                return None
            try:
                return int(text)
            except ValueError:
                return text
        return text
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {field_name}: {text!r} ({exc})") from None


def _apply(cfg, updates: dict[str, str], source: str) -> None:
    known = {f.name: f for f in dataclasses.fields(cfg)}
    for key, text in updates.items():
        if key not in known:
            raise ConfigError(
                f"{source}: unknown option {key!r} for this command "
                f"(known: {', '.join(sorted(known))})")
        setattr(cfg, key, _parse_value(text, known[key].default, key))


def _load_config_file(path: str, command: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not parser.has_section(command):
        return {}
    return dict(parser.items(command))


def _parse_set_args(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcni",
        description="Weight-noise-injection uncertainty experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--outdir", help="output directory for data files")
        p.add_argument("--config", help="INI config file with a [command] section")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field (repeatable)")

    p = sub.add_parser("toy", help="1-D interval comparison of the noisy models")
    common(p)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--passes", type=int, help="MC forward passes")
    p.add_argument("--random-x", action="store_true",
                   help="draw x uniformly instead of an even grid")

    p = sub.add_parser("benchmark", help="grid-searched regression comparison")
    common(p)
    p.add_argument("--data", help="regression CSV (target column last by default)")
    p.add_argument("--target", help="target column name or index")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--passes", type=int, help="MC forward passes")

    p = sub.add_parser("riskcov", help="risk-coverage curve from prediction files")
    common(p)
    p.add_argument("--pred-file", help="CSV with pred,target columns")
    p.add_argument("--unc-file", help="CSV with an uncertainty column")
    p.add_argument("--risk-kind", choices=RISK_KINDS)

    p = sub.add_parser("noise-sweep", help="entropy response to input corruption")
    common(p)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--passes", type=int, help="MC forward passes")

    p = sub.add_parser("bench-time", help="inference wall-clock timing")
    common(p)
    p.add_argument("--seed", type=int, help="master seed")

    p = sub.add_parser("gpcheck", help="wide-network vs kernel correspondence")
    common(p)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--nonlinearity", choices=NONLINEARITIES)
    return parser


def resolve_config(args: argparse.Namespace):
    """Build the command's config; its runner validates it before any work."""
    cls, runner = COMMANDS[args.command]
    cfg = cls()
    if args.config:
        _apply(cfg, _load_config_file(args.config, args.command),
               f"config file {args.config}")
    _apply(cfg, _parse_set_args(args.set), "--set")
    # each dedicated flag is named after the config field it sets
    flags = {f.name: str(value) for f in dataclasses.fields(cfg)
             if (value := getattr(args, f.name, None)) is not None
             and value is not False}
    _apply(cfg, flags, "command line")
    return cfg, runner


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, runner = resolve_config(args)
        out = runner(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for path in out.files.values():
        print(f"wrote {path}")
    print(f"manifest digest (timings excluded): {out.digest}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
