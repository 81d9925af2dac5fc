"""Byte-for-byte replay of stored command-line outputs.

``tests/golden/cli.json`` maps each command below (bundled corpus files by
bare name) to its exit status and its exact standard output, including
witness strategy lines and the reduction log.  Run this file as a
script to rewrite the store from the current code.
"""

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from ifgames.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
CORPUS_SUFFIXES = (".if", ".game", ".struct", ".nat", ".profile")

COMMANDS = [
    ["value", "monty_hall.game", "--format", "structured"],
    ["value", "phi_mh.if", "doors3.struct", "--format", "structured"],
    ["value", "phi_mh_prime.if", "doors3.struct", "--format", "structured"],
    ["value", "matching_pennies.if", "pennies_3.struct", "--format", "structured"],
    ["value", "stochastic_matching_pennies.if", "binary.struct",
     "--nature", "biased_coin.nat", "--format", "structured"],
    ["value", "phi_sb.if", "sleeping_beauty.struct", "--format", "structured"],
    ["value", "phi_sb_prime.if", "sleeping_beauty.struct", "--format", "structured"],
    ["condition", "phi_sb.if", "sleeping_beauty.struct",
     "--profile", "sb_heads.profile", "--event", "Awake(x,t)",
     "--format", "structured"],
    ["export", "matching_pennies.if", "pennies_2.struct"],
]


def _resolve(argv):
    corpus = resources.files("ifgames") / "corpus"
    return [str(corpus / a) if a.endswith(CORPUS_SUFFIXES) else a for a in argv]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_resolve(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    stored = json.loads(GOLDEN.read_text())[" ".join(argv)]
    code, out = _run(argv)
    assert code == stored["exit"]
    assert out == stored["stdout"]


if __name__ == "__main__":
    store = {}
    for argv in COMMANDS:
        code, out = _run(argv)
        store[" ".join(argv)] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(store, indent=2) + "\n")
