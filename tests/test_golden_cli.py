"""Byte-for-byte replay of stored command-line outputs.

``tests/golden/cli.json`` maps each command below (bundled corpus files by
bare name, other inputs by their path under ``tests/``) to its exit status
and its exact standard output, including witness strategy lines and the
reduction log.  Run this file as a script to rewrite the store from the
current code.
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
    # the falsifier has no information sets: one column, no choices
    ["value", "phi_mh_chance.if", "doors3.struct", "--format", "structured"],
    ["value", "matching_pennies.if", "pennies_3.struct", "--format", "structured"],
    ["value", "stochastic_matching_pennies.if", "binary.struct",
     "--nature", "biased_coin.nat", "--format", "structured"],
    ["value", "phi_sb.if", "sleeping_beauty.struct", "--format", "structured"],
    ["value", "phi_sb_prime.if", "sleeping_beauty.struct", "--format", "structured"],
    ["condition", "phi_sb.if", "sleeping_beauty.struct",
     "--profile", "sb_heads.profile", "--event", "Awake(x,t)",
     "--format", "structured"],
    ["export", "matching_pennies.if", "pennies_2.struct"],
    # no verifier-win terminal: a one-cell zero matrix after the merge
    ["value", "golden/irreflexive.if", "pennies_2.struct", "--format", "structured"],
    # 81 rows and 823,875 columns, merged on the column side
    ["value", "golden/phi_mh_negated.if", "doors3.struct", "--format", "structured"],
    # the seeded Monte Carlo runs: the benchmark's stick/switch request,
    ["simulate", "phi_mh_prime_chance.if", "doors3.struct",
     "--profile", "mh_prime_chance_paper.profile", "--plays", "100000",
     "--seed", "1", "--event", "z != x and z != y#1 and y = y#1",
     "--event", "z != x and z != y#1 and y != y#1", "--format", "structured"],
    # a chance branch of mass 0 after one of mass 1 (a threshold at 2**64),
    ["simulate", "phi_sb.if", "sleeping_beauty.struct",
     "--nature", "sb_lambda_prime.nat", "--profile", "sb_even.profile",
     "--plays", "20000", "--seed", "7", "--event", "Awake(x,t)",
     "--format", "structured"],
    # and the solved equilibrium profile, in text
    ["simulate", "stochastic_matching_pennies.if", "binary.struct",
     "--nature", "biased_coin.nat", "--solve", "--plays", "5000",
     "--seed", "11", "--event", "z = 1"],
]


def _resolve(argv):
    corpus = resources.files("ifgames") / "corpus"
    return [str(Path(__file__).parent / a) if "/" in a
            else str(corpus / a) if a.endswith(CORPUS_SUFFIXES) else a
            for a in argv]


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
