#!/usr/bin/env python3
"""Size census of the package: lines, public names, dataclass fields, settings.

Prints one JSON line with four counts over `src/pompeiu`:

  lines             physical lines of every module
  public_names      module-level functions and classes whose names do not
                    start with `_`, plus the methods of those classes whose
                    names do not (properties and classmethods included)
  dataclass_fields  annotated fields of every `@dataclass` class
  settable_values   parameters with defaults on the public functions and
                    methods above, dataclass fields with defaults, and the
                    options (`--...`, not `--help`) of every `pmp` subcommand

The counts come from the syntax tree alone, except the `pmp` options, which
are read from `cli.build_parser()`.

    PYTHONPATH=src python3 scripts/census.py
"""

import argparse
import ast
import json
from pathlib import Path

from pompeiu.cli import build_parser

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pompeiu"


def _public(node) -> bool:
    return not node.name.startswith("_")


def _defaults(func) -> int:
    args = func.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _is_dataclass(cls) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _leaf_parsers(parser):
    """Every parser under `parser` that has no subcommands of its own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for action in subs:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


def census() -> dict:
    lines = names = fields = settable = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node):
                names += 1
                settable += _defaults(node)
            elif isinstance(node, ast.ClassDef):
                if _public(node):
                    names += 1
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                                and _public(item):
                            names += 1
                            settable += _defaults(item)
                if _is_dataclass(node):
                    for item in node.body:
                        if isinstance(item, ast.AnnAssign):
                            fields += 1
                            settable += item.value is not None
    for parser in _leaf_parsers(build_parser()):
        settable += sum(1 for a in parser._actions
                        if a.option_strings and not isinstance(a, argparse._HelpAction))
    return {"lines": lines, "public_names": names, "dataclass_fields": fields,
            "settable_values": settable}


def main():
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    print(json.dumps(census()))


if __name__ == "__main__":
    main()
