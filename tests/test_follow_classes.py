"""Follow classes by the frontier walk against the enumeration they replace.

``follow_classes`` must give what enumerating every reduced strategy and
grouping the follow table gives (``_follow_classes(_follow_matrix(...))`` in
``test_solver.py``): the same strategy count, the same number of classes,
the action row of each class's first member in enumeration order, the same
follow bits, and the same ``BudgetError`` at the same count.  Checked on
every corpus game, on the negated Monty Hall sentence (whose falsifier has
the 823,875 strategies) and on seeded random sentences.
"""

import random
from importlib import resources

import numpy as np
import pytest

from ifgames import (
    EXIST,
    UNIV,
    BudgetError,
    ReducedStrategy,
    build_matrix,
    reduce_matrix,
    solve,
    uniform_nature,
)
from ifgames import strategy
from ifgames.cli import main
from ifgames.corpus import CORPUS, corpus_text
from ifgames.parser import load_game
from ifgames.strategy import enumerate_reduced, follow_classes
from random_sentences import random_game
from test_solver import _follow_classes, _follow_matrix

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


def assert_classes_match(game, player, nodes, budget=strategy.DEFAULT_STRATEGY_BUDGET):
    """Check ``follow_classes`` against the enumeration; returns the class
    list, the enumerated list and the enumeration index of each class's
    first member (``None`` when both raised the same BudgetError)."""
    want = _outcome(lambda: enumerate_reduced(game, player, budget))
    got = _outcome(lambda: follow_classes(game, player, nodes, budget))
    if isinstance(want, tuple):
        assert got == want
        return None
    classes, follow, count = got
    table = _follow_matrix(want, nodes)
    first = _follow_classes(table)
    assert count == len(want)
    assert len(classes) == len(first)
    assert np.array_equal(classes.table, want.table[first])
    assert np.array_equal(follow, table[first])
    return classes, want, first


@pytest.mark.parametrize("source, structure, nature", _GAMES,
                         ids=[s if not t else f"{s}/{t}" + (f"/{n}" if n else "")
                              for s, t, n in _GAMES])
def test_corpus_classes_equal_enumeration(source, structure, nature):
    game, _ = _load(source, structure, nature)
    for player in (EXIST, UNIV):
        found = assert_classes_match(game, player, _wins(game))
        if found is not None and len(found[1]) <= 10**4:
            got, want, first = found
            assert list(got) == [want[int(i)] for i in first]


def test_strategy_rows_equal_enumeration(mh_game):
    got, want, first = assert_classes_match(mh_game, EXIST, _wins(mh_game))
    # every class row is the enumerated strategy at its first member
    assert len(got) == 4_114
    assert all(got[k] == want[int(i)] for k, i in enumerate(first))
    assert got[-1] == want[int(first[-1])]
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
                assert_classes_match(game, player, _wins(game), budget)


def test_random_sentences_classes_equal_enumeration():
    checked = merged = 0
    for seed in range(220):
        game = random_game(seed)
        terminals = game.terminals()
        subset = random.Random(seed).sample(terminals, len(terminals) // 2)
        for player in (EXIST, UNIV):
            for nodes in (_wins(game), subset):
                got = assert_classes_match(game, player, nodes, budget=10**4)
                if got is not None:
                    checked += 1
                    merged += len(got[1]) > len(got[0])
    assert checked >= 800
    assert merged >= 150


def test_value_path_does_not_enumerate(monkeypatch, capsys, mh_game):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_reduced called")

    monkeypatch.setattr(strategy, "enumerate_reduced", refuse)
    matrix = build_matrix(mh_game, uniform_nature(mh_game))
    assert matrix.members == (823_875, 81)
    assert len(matrix.rows) == 4_114
    assert reduce_matrix(matrix).log[0] == "rows: merged 823019 duplicates (823875 -> 856)"
    eq = solve(mh_game, uniform_nature(mh_game))
    assert [s.lines() for s, _ in eq.row_strategies()]
    corpus = resources.files("ifgames") / "corpus"
    assert main(["value", str(corpus / "phi_mh.if"), str(corpus / "doors3.struct")]) == 0
    assert "value = 2/3" in capsys.readouterr().out


def test_class_lists_read_without_enumerating(monkeypatch, mh_game):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_reduced called")

    monkeypatch.setattr(strategy, "enumerate_reduced", refuse)
    matrix = build_matrix(mh_game, uniform_nature(mh_game))
    read = list(matrix.rows) + list(matrix.cols)
    assert len(read) == 4_114 + 81
    assert all(isinstance(s, ReducedStrategy) for s in read)


def test_merge_draws_another_key_on_a_collision(monkeypatch):
    rng = np.random.default_rng(3)
    columns = rng.integers(0, 4, size=(2, 200)).astype(np.uint64)
    want = strategy._merge(columns, np.arange(200))
    real, calls = strategy._mix, []

    def colliding(x):
        calls.append(len(x))
        # the first key is the second word alone, which columns share
        return np.zeros_like(x) if len(calls) == 1 else real(x)

    monkeypatch.setattr(strategy, "_mix", colliding)
    got = strategy._merge(columns, np.arange(200))
    assert len(calls) == 2
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    first, summed = want
    _, first_ref, inverse = np.unique(columns.T, axis=0, return_index=True,
                                      return_inverse=True)
    assert first.tolist() == sorted(first_ref.tolist())
    # per column, its group, the groups numbered in order of their first column
    group = np.argsort(np.argsort(first_ref))[inverse.ravel()]
    assert np.array_equal(columns[:, first][:, group], columns)
    assert summed.tolist() == [int(np.arange(200)[group == g].sum())
                               for g in range(len(first))]


def test_counts_beyond_int64_stop_at_the_exact_limit():
    # the verifier picks y in each of 64 sets (one per x); its 64**64
    # strategies fall into few enough states that only the counts grow
    universe = " ".join(str(i) for i in range(64))
    game, _ = load_game("forall x exists y (x = y)", f"universe {universe}\n", None)
    with pytest.raises(BudgetError) as info:
        follow_classes(game, EXIST, _wins(game), budget=10**30)
    limit = (2**63 - 1) // 64
    assert (info.value.limit, info.value.reached) == (limit, 64**10)
    assert follow_classes(game, UNIV, _wins(game), budget=10**30)[2] == 64


@pytest.mark.parametrize("n", [129, 32_769])
def test_wide_set_keeps_its_last_action(n):
    # one verifier set of n actions; only the last one wins, and a table
    # too narrow for n - 1 would lose it
    universe = " ".join(str(i) for i in range(1, n + 1))
    game, _ = load_game(f"exists y (y = {n})", f"universe {universe}\n", None)
    rows, follow, count = follow_classes(game, EXIST, _wins(game))
    assert count == n
    assert rows.table[follow[:, 0], 0].tolist() == [n - 1]
    assert enumerate_reduced(game, EXIST).table[n - 1].tolist() == [n - 1]
