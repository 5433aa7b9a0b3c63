"""The CLI's flag surface, pinned.

For every verb (``run``, ``live run``, ``trace merge``, ...) each option's
dest, option strings, default, type, choices, nargs, const and required
flag must match ``cli_contract.json``.  Help text is free to change.

The fixture was recorded from the parser as it stood before the flag
groups were factored into shared helpers; re-record it only when a flag
is added, removed or changed on purpose::

    PYTHONPATH=src python tests/unit/test_cli_contract.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser

FIXTURE = Path(__file__).with_name("cli_contract.json")


def _option(action: argparse.Action) -> dict:
    kind = action.type
    return {
        "option_strings": list(action.option_strings),
        "default": action.default,
        "type": None if kind is None else getattr(kind, "__name__", repr(kind)),
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "const": action.const,
        "required": action.required,
    }


def contract(parser: argparse.ArgumentParser, verb: str = "") -> dict:
    """Verb → dest → option record, walking every nested sub-parser."""
    verbs = {verb: {}}
    for action in parser._actions:
        verbs[verb][action.dest] = _option(action)
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                verbs.update(contract(child, f"{verb} {name}".strip()))
    return verbs


EXPECTED = json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def actual():
    return contract(build_parser())


def test_same_verbs(actual):
    assert sorted(actual) == sorted(EXPECTED)


@pytest.mark.parametrize("verb", sorted(EXPECTED))
def test_verb_options_unchanged(actual, verb):
    assert actual.get(verb) == EXPECTED[verb]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(contract(build_parser()), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
