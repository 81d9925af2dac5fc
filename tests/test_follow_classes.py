"""Follow tables of the payoff matrix against the enumeration.

``build_matrix`` must give what enumerating every reduced strategy and
reading off its follow table gives (``reference.follow_matrix``): per side,
one row per enumerated strategy, in enumeration order, with the same
follow bits, and the enumeration's ``BudgetError`` at the same count.
Checked on every corpus game, on the negated Monty Hall sentence (whose
falsifier has the 823,875 strategies) and on seeded random sentences.
"""

import random
from importlib import resources

import numpy as np
import pytest

from ifgames import (
    EXIST,
    UNIV,
    BudgetError,
    build_matrix,
    embedded_nature,
    uniform_nature,
)
from ifgames import solver, strategy
from ifgames.cli import main
from ifgames.corpus import CORPUS, corpus_text
from ifgames.parser import load_game
from ifgames.strategy import enumerate_reduced
from random_sentences import random_game
from reference import follow_classes, follow_matrix

_GAMES = sorted({(e.game or e.formula, c.structure, c.nature)
                 for e in CORPUS for c in e.checks}, key=str)
_GAMES.append(("~phi_mh.if", "doors3.struct", None))


def _load(source, structure, nature):
    text = (f"~({corpus_text(source[1:])})" if source.startswith("~")
            else corpus_text(source))
    return load_game(text, structure and corpus_text(structure),
                     nature and corpus_text(nature))


def _outcome(fn):
    """``fn()``, or ("budget", what, limit, reached) for the BudgetError
    it raised."""
    try:
        return fn()
    except BudgetError as exc:
        return ("budget", exc.what, exc.limit, exc.reached)


def _wins(game):
    return [t for t in game.terminals() if game.winner_of[t] == EXIST]


def assert_side_matches(got, follow, want, nodes):
    """Check one side's strategy list and follow table against the
    enumeration ``want``; returns the reference follow table."""
    table = follow_matrix(want, nodes)
    assert len(got) == len(want)
    assert np.array_equal(got.table, want.table)
    assert np.array_equal(follow, table)
    return table


def assert_matrix_matches(game, lam, budget=strategy.DEFAULT_STRATEGY_BUDGET):
    """Check ``build_matrix``'s strategies against the enumeration;
    returns, per side, the matrix's list, the enumerated list and the
    reference follow table (nothing when both raised the same
    BudgetError, the enumeration's of I, then of II)."""
    want = [_outcome(lambda: enumerate_reduced(game, player, budget))
            for player in (EXIST, UNIV)]
    got = _outcome(lambda: build_matrix(game, lam, budget))
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        assert got == errors[0]
        return []
    wins = _wins(game)
    return [(strats, want, assert_side_matches(strats, follow, want, wins))
            for strats, follow, want in ((got.rows, got.f_row, want[0]),
                                         (got.cols, got.f_col, want[1]))]


@pytest.mark.parametrize("source, structure, nature", _GAMES,
                         ids=[s if not t else f"{s}/{t}" + (f"/{n}" if n else "")
                              for s, t, n in _GAMES])
def test_corpus_classes_equal_enumeration(source, structure, nature):
    game, lam = _load(source, structure, nature)
    for got, want, _ in assert_matrix_matches(game, lam):
        if len(want) <= 10**4:
            assert list(got) == list(want)


def test_strategy_rows_equal_enumeration(mh_game):
    (got, want, _), _ = assert_matrix_matches(mh_game, uniform_nature(mh_game))
    # every row is the enumerated strategy at its index, none merged
    assert len(got) == 823_875
    rng = random.Random(3)
    for k in [0, 1, *rng.sample(range(len(got)), 200), len(got) - 1]:
        assert got[k] == want[k]
    assert got[-1] == want[len(want) - 1]
    with pytest.raises(IndexError):
        got[len(got)]


def _running_totals(game, player):
    """Every count at which the enumeration checks its budget and has
    grown, found by raising the budget to each count reached."""
    totals, budget = [], 1
    while True:
        try:
            enumerate_reduced(game, player, budget)
        except BudgetError as exc:
            totals.append(exc.reached)
            budget = exc.reached
        else:
            return totals


@pytest.mark.parametrize("name", ["fig1_game", "sb_game"])
def test_budget_error_at_every_running_total(request, name):
    game = request.getfixturevalue(name)
    for player in (EXIST, UNIV):
        totals = _running_totals(game, player)
        if player == EXIST:
            assert len(totals) > 2
        for total in totals:
            for budget in (total - 1, total):
                assert_matrix_matches(game, embedded_nature(game), budget)


def test_random_sentences_classes_equal_enumeration():
    """Seeds 0-219 at a budget of 10**4, on the win terminals and on a
    random half of all terminals; ``merged`` counts the follow tables with
    equal rows, which the matrix keeps apart."""
    checked = merged = 0
    for seed in range(220):
        game = random_game(seed)
        terminals = game.terminals()
        subset = random.Random(seed).sample(terminals, len(terminals) // 2)
        found = [(want, table) for _, want, table
                 in assert_matrix_matches(game, uniform_nature(game), budget=10**4)]
        for player in (EXIST, UNIV):
            want = _outcome(lambda: enumerate_reduced(game, player, 10**4))
            if not isinstance(want, tuple):
                table = follow_matrix(want, subset)
                assert np.array_equal(solver._follow_table(want, subset), table)
                found.append((want, table))
        checked += len(found)
        merged += sum(len(follow_classes(table)) < len(want)
                      for want, table in found)
    assert checked >= 800
    assert merged >= 150


def test_value_path_enumerates_the_settled_game(monkeypatch, capsys):
    real, calls = solver.enumerate_reduced, []

    def record(game, player, *args):
        strats = real(game, player, *args)
        calls.append((len(game), player, len(strats)))
        return strats

    monkeypatch.setattr(solver, "enumerate_reduced", record)
    corpus = resources.files("ifgames") / "corpus"
    assert main(["value", str(corpus / "phi_mh.if"), str(corpus / "doors3.struct")]) == 0
    assert "value = 2/3" in capsys.readouterr().out
    assert calls == [(61, EXIST, 12), (61, UNIV, 6)]


def test_strategy_cell_budget_exits_two(monkeypatch, tmp_path, capsys):
    # the verifier's 3,125 strategies over its 5 sets take 15,625 cells at
    # the last set: a budget of one cell less stops the enumeration before
    # that table is taken, and the exact count lets it pass
    sentence = "forall x forall z (exists y/{x}) (x = y)"
    game, _ = load_game(sentence, "universe 1 2 3 4 5\n", None)
    monkeypatch.setattr(strategy, "DEFAULT_CELL_BUDGET", 15_624)
    with pytest.raises(BudgetError) as info:
        enumerate_reduced(game, EXIST)
    assert (info.value.what, info.value.limit, info.value.reached) == \
        ("strategy cell", 15_624, 15_625)
    (tmp_path / "phi.if").write_text(sentence + "\n")
    (tmp_path / "five.struct").write_text("universe 1 2 3 4 5\n")
    args = ["value", str(tmp_path / "phi.if"), str(tmp_path / "five.struct")]
    code = main(args)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == \
        "error: strategy cell budget exceeded: limit 15624, reached 15625\n"
    monkeypatch.setattr(strategy, "DEFAULT_CELL_BUDGET", 15_625)
    assert len(enumerate_reduced(game, EXIST)) == 3_125
    assert main(args) == 0


@pytest.mark.parametrize("n", [129, 32_769])
def test_wide_set_keeps_its_last_action(n):
    # one verifier set of n actions; only the last one wins, and a table
    # too narrow for n - 1 would lose it
    universe = " ".join(str(i) for i in range(1, n + 1))
    game, lam = load_game(f"exists y (y = {n})", f"universe {universe}\n", None)
    matrix = build_matrix(game, lam)
    assert matrix.shape == (n, 1)
    assert matrix.rows.table[matrix.f_row[:, 0], 0].tolist() == [n - 1]
    strats = enumerate_reduced(game, EXIST)
    assert len(strats) == n
    assert strats.table[n - 1].tolist() == [n - 1]
