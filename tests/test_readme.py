"""The Python example in README.md runs as written, and every CLI flag
it names exists.

The package namespace is kept small, so this pins that the names the
README imports from it are still there.
"""

import argparse
import pathlib
import re

from eulermeasure.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _cli_options() -> set[str]:
    parser = build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        option
        for sub in (parser, *verbs.choices.values())
        for action in sub._actions
        for option in action.option_strings
    }


def test_readme_flags_are_cli_options():
    # the pip line's flag belongs to pip, not to the CLI
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text())) - {"--no-build-isolation"}
    assert named
    assert named <= _cli_options(), sorted(named - _cli_options())
