"""Command-line front end.

The front end has two jobs: turning argv into a command's config, and
turning the command's exceptions into exit codes. Each subcommand is
declared once, in mcni.experiments.COMMANDS, with its config dataclass and
its run_* function; the parser is built from that table. A subcommand's
help is the first line of its config class's docstring, and besides
--config, --set and --outdir it takes one dedicated flag for each field the
class lists in FLAGS, named after that field (--pred-file sets pred_file).
Values are resolved in order: dataclass defaults, then the [command]
section of an INI config file (--config), then --set key=value overrides,
then dedicated flags. A key is the field name exactly, and every value,
whichever its source, is stripped text read by one parser against the
field's default: a tuple is split on ',' (on ';' between the rows of a tuple
of tuples) and each entry is read like a lone value. A value it cannot
read, or an empty entry, is a config error. The run_* function validates
the resolved config before it writes anything, writes the data files and
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_tuple(text: str, template: tuple, field_name: str) -> tuple:
    """Split on ',' (on ';' between the rows of a tuple of tuples) and read
    each entry like a lone value whose default is the template's first entry."""
    if not text:
        return ()
    sep = ";" if isinstance(template[0], tuple) else ","
    entries = [entry.strip() for entry in text.split(sep)]
    if "" in entries:
        raise ConfigError(f"bad value for {field_name}: {text!r} (empty entry)")
    return tuple(_parse_value(entry, template[0], field_name) for entry in entries)


def _parse_value(text: str, default, field_name: str):
    """Interpret stripped text using the field's default value as the type template."""
    if isinstance(default, tuple):
        return _parse_tuple(text, default, field_name)
    try:
        if isinstance(default, bool):
            return _parse_bool(text)
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if default is None:
            if text.lower() in ("", "none"):
                return None
            try:
                return int(text)
            except ValueError:
                return text
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {field_name}: {text!r} ({exc})") from None


def _apply(cfg, updates: dict[str, str], source: str) -> None:
    known = {f.name: f for f in dataclasses.fields(cfg)}
    for key, text in updates.items():
        if key not in known:
            raise ConfigError(
                f"{source}: unknown option {key!r} for this command "
                f"(known: {', '.join(sorted(known))})")
        setattr(cfg, key, _parse_value(text.strip(), known[key].default, key))


def _load_config_file(path: str, command: str) -> dict[str, str]:
    # values are text like any --set value: a '%' is literal, and a key is
    # the field name exactly
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
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
    for command, (cls, _) in COMMANDS.items():
        p = sub.add_parser(command, help=cls.__doc__.partition("\n")[0])
        p.add_argument("--config", help="INI config file with a [command] section")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field (repeatable)")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        # only the flags given reach the namespace
        for name in ("outdir", *cls.FLAGS):
            kind = {"action": "store_true"} if isinstance(defaults[name], bool) else {}
            p.add_argument(f"--{name.replace('_', '-')}", default=argparse.SUPPRESS,
                           help=f"default: {defaults[name]!r}", **kind)
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
    flags = {f.name: str(getattr(args, f.name)) for f in dataclasses.fields(cfg)
             if hasattr(args, f.name)}
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
