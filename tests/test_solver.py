"""Payoff matrices, the exact LP, conditioning, simulation."""

import bisect
import json
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ifgames import (
    EXIST,
    NATURE,
    UNIV,
    BudgetError,
    ChanceOr,
    ChanceQ,
    GameError,
    MixedStrategy,
    ReducedStrategy,
    Structure,
    ZeroProbabilityEventError,
    build_matrix,
    build_semantic_game,
    conditional_value,
    enumerate_reduced,
    negate,
    occurrences,
    parse_event,
    parse_formula,
    parse_nature_strategy,
    parse_profile,
    parse_structure,
    simulate,
    solve,
    solve_zero_sum,
    truth_value,
    uniform_nature,
    verify_equilibrium,
)
from ifgames import solver
from ifgames.corpus import CORPUS, corpus_text
from ifgames.game import TERMINAL
from ifgames.parser import load_game
from ifgames.solver import (
    Equilibrium,
    PayoffMatrix,
    SimulationReport,
    _exact_mix_scores,
    _simplex_max,
    _solve_int_matrix,
)
from ifgames.strategy import own_reachable_closure, play_masses
from random_sentences import seeded_sentence
from reference import follow_classes, follow_matrix, follows, from_rules

F = Fraction
GOLDEN = pathlib.Path(__file__).parent / "golden"

FIG3 = [
    [1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 1],
    [0, 1, 1, 0, 1, 1],
    [1, 0, 1, 1, 0, 1],
    [1, 1, 0, 1, 1, 0],
]


def cell(m, i, j):
    """The exact payoff in row ``i`` and column ``j`` of a payoff matrix."""
    return Fraction(int(m.cells([i], [j])[0, 0]), m.den)


def dense(m):
    """Every cell numerator of a payoff matrix."""
    rows, cols = m.shape
    return m.cells(list(range(rows)), list(range(cols)))


def as_follow_tables(num, den):
    """Any integer matrix with cells in [0, den] as a payoff matrix: one win
    terminal per cell, followed by the cell's row and column alone, whose
    weight is the cell."""
    num = np.asarray(num, dtype=np.int64)
    n_rows, n_cols = num.shape
    # terminal i * n_cols + j is cell (i, j)
    f_row = np.repeat(np.eye(n_rows, dtype=bool), n_cols, axis=1)
    f_col = np.tile(np.eye(n_cols, dtype=bool), n_rows)
    return PayoffMatrix(None, None, f_row, f_col, num.ravel(), den)


def fig1_row_kinds(game):
    """Map each reduced contestant strategy index to (guess, stick|switch|mixed)."""
    rows = enumerate_reduced(game, EXIST)
    infos = game.information_partition(EXIST)
    out = {}
    for i, sigma in enumerate(rows):
        acts = dict(sigma.actions)
        guess = infos[0].actions[acts[0]]
        finals = [infos[k].actions[a] for k, a in sigma.actions if k != 0]
        kind = ("stick" if all(f == guess for f in finals)
                else "switch" if all(f != guess for f in finals) else "mixed")
        out[i] = (guess, kind)
    return out


def fig1_col_kinds(game):
    """Map each reduced host strategy index to (prize, low|high)."""
    cols = enumerate_reduced(game, UNIV)
    infos = game.information_partition(UNIV)
    out = {}
    for j, tau in enumerate(cols):
        acts = dict(tau.actions)
        prize = infos[0].actions[acts[0]]
        free = [infos[k].actions[a] for k, a in tau.actions
                if infos[k].label == f"@o{prize}{prize}[]"]
        low = min(d for d in ("1", "2", "3") if d != prize)
        out[j] = (prize, "low" if free[0] == low else "high")
    return out


def fig1_named_order(game):
    by_row = {v: k for k, v in fig1_row_kinds(game).items()}
    by_col = {v: k for k, v in fig1_col_kinds(game).items()}
    rows = [by_row[(b, "stick")] for b in "123"] + \
           [by_row[(b, "switch")] for b in "123"]
    cols = [by_col[(a, "low")] for a in "123"] + \
           [by_col[(a, "high")] for a in "123"]
    return rows, cols


def test_expected_payoff_fig3_cells(fig1_game):
    rows = enumerate_reduced(fig1_game, EXIST)
    cols = enumerate_reduced(fig1_game, UNIV)
    lam = uniform_nature(fig1_game)
    order_r, order_c = fig1_named_order(fig1_game)
    sigma1, sigma1p = rows[order_r[0]], rows[order_r[3]]
    tau1 = cols[order_c[0]]
    pure = MixedStrategy.pure
    tau = pure(tau1)
    assert conditional_value(fig1_game, lam, pure(sigma1), tau, None).value == 1
    assert conditional_value(fig1_game, lam, pure(sigma1p), tau, None).value == 0


def test_expected_payoff_sb_always_tails(sb_game):
    lam = uniform_nature(sb_game)
    tails = from_rules(
        sb_game, EXIST,
        lambda info: "R" if info.label == "@/0/0/1[]"
        else ("L" if "t=2,x=1" in info.label else "R"))
    tau = enumerate_reduced(sb_game, UNIV)[0]
    assert conditional_value(sb_game, lam, MixedStrategy.pure(tails),
                             MixedStrategy.pure(tau), None).value == F(3, 4)


def test_build_matrix_fig1_matches_fig3(fig1_solution, fig1_game):
    matrix, _ = fig1_solution
    # rows and columns are the enumerated strategies, in enumeration order
    # (criterion 3 indexes them so too)
    assert matrix.shape == (len(matrix.rows), len(matrix.cols)) == (12, 6)
    assert np.array_equal(matrix.rows.table,
                          enumerate_reduced(fig1_game, EXIST).table)
    assert np.array_equal(matrix.cols.table,
                          enumerate_reduced(fig1_game, UNIV).table)
    order_r, order_c = fig1_named_order(fig1_game)
    num = dense(matrix)
    assert num[np.ix_(order_r, order_c)].tolist() == FIG3
    unnamed = [i for i in range(12) if i not in order_r]
    assert len(unnamed) == 6
    for i in unnamed:
        assert int(num[i].sum()) == 3  # three 1's and three 0's


def test_build_matrix_matching_pennies_identity():
    m = Structure(("0", "1"))
    game = build_semantic_game(m, parse_formula("forall x (exists y/{x}) x = y"))
    matrix = build_matrix(game, uniform_nature(game))
    assert matrix.shape == (2, 2)
    assert [[cell(matrix, i, j) for j in range(2)] for i in range(2)] == \
        [[F(1), F(0)], [F(0), F(1)]]


# den = 2**61 - 1 is above 2**53: the cell 2**61 - 2 is one that a float64
# product would round to 2**61.
MERSENNE_61 = 2**61 - 1
MERSENNE_COIN = f"z : 0 -> 1/{MERSENNE_61}, 1 -> {MERSENNE_61 - 1}/{MERSENNE_61}\n"
# unequal win-terminal masses 1/3 and 2/3 for phi_sb_prime
BIASED_COIN_X = "x : 1 -> 1/3, 2 -> 2/3\n"


def _load(source, structure, nature):
    nature_text = (corpus_text(nature) if nature and nature.endswith(".nat")
                   else nature)
    # "~name" is the negation of the corpus sentence: more columns than rows
    text = (f"~({corpus_text(source[1:])})" if source.startswith("~")
            else corpus_text(source))
    return load_game(text, structure and corpus_text(structure), nature_text)


def _weighted_follow(g, lam, budget=10**6):
    """Reference tables for ``build_matrix``, read off the enumeration:
    both sides' reduced strategies, the row follow table of the win
    terminals times their chance masses over one common denominator
    (int64), the column follow table and that denominator."""
    rows = enumerate_reduced(g, EXIST, budget)
    cols = enumerate_reduced(g, UNIV, budget)
    win_nodes = [t for t in g.terminals() if g.winner_of[t] == EXIST]
    masses, scale = play_masses(g, lam)
    masses = [Fraction(masses[t], scale) for t in win_nodes]
    den = math.lcm(*(mass.denominator for mass in masses))
    weights = np.array([int(m * den) for m in masses], dtype=np.int64)
    return (rows, cols, follow_matrix(rows, win_nodes) * weights,
            follow_matrix(cols, win_nodes), den)


def _full_matrix(g, lam, budget=10**6):
    """Reference for ``build_matrix``: the dense payoff matrix over every
    pair of enumerated reduced strategies, as (rows, cols, numerators,
    denominator), by an exact int64 product of the follow tables."""
    rows, cols, weighted, f_col, den = _weighted_follow(g, lam, budget)
    return rows, cols, weighted @ f_col.T, den


@pytest.mark.parametrize("source, structure, nature", [
    ("monty_hall.game", None, None),
    ("matching_pennies.if", "pennies_3.struct", None),
    ("stochastic_matching_pennies.if", "binary.struct", "biased_coin.nat"),
    ("phi_sb.if", "sleeping_beauty.struct", None),
    ("stochastic_matching_pennies.if", "binary.struct", MERSENNE_COIN),
    ("~phi_sb_prime.if", "sleeping_beauty.struct", BIASED_COIN_X),
], ids=["fig1", "pennies", "biased-coin", "sleeping-beauty", "den-2^61-1",
        "negated-sleeping-beauty-prime"])
def test_build_matrix_cells_equal_expected_payoff(source, structure, nature):
    game, lam = _load(source, structure, nature)
    matrix = build_matrix(game, lam)
    rows, cols = enumerate_reduced(game, EXIST), enumerate_reduced(game, UNIV)
    if nature == MERSENNE_COIN:
        assert matrix.den == MERSENNE_61
        assert int(dense(matrix).max()) == MERSENNE_61 - 1
    if source.startswith("~"):
        # 7 win terminals split the 31 columns into 23 follow classes,
        # and the matrix keeps all 31
        assert matrix.shape == (4, 31)
        assert len(follow_classes(matrix.f_col)) == 23
    assert matrix.shape == (len(matrix.rows), len(matrix.cols))
    assert np.array_equal(matrix.rows.table, rows.table)
    assert np.array_equal(matrix.cols.table, cols.table)
    for i, sigma in enumerate(rows):
        for j, tau in enumerate(cols):
            assert cell(matrix, i, j) == \
                conditional_value(game, lam, MixedStrategy.pure(sigma),
                                  MixedStrategy.pure(tau), None).value


@pytest.mark.parametrize("source, structure, nature", [
    ("monty_hall.game", None, None),
    ("matching_pennies.if", "pennies_3.struct", None),
    ("stochastic_matching_pennies.if", "binary.struct", "biased_coin.nat"),
    ("phi_sb.if", "sleeping_beauty.struct", None),
    ("phi_sb_prime.if", "sleeping_beauty.struct", None),
    ("~phi_sb_prime.if", "sleeping_beauty.struct", BIASED_COIN_X),
    ("stochastic_matching_pennies.if", "binary.struct", MERSENNE_COIN),
    ("phi_mh_prime.if", "doors3.struct", None),
], ids=["fig1", "pennies", "biased-coin", "sleeping-beauty",
        "sleeping-beauty-prime", "negated-sleeping-beauty-prime", "den-2^61-1",
        "monty-hall-prime"])
def test_class_matrix_reduces_like_full_matrix(source, structure, nature):
    # the matrix is the full matrix over every enumerated strategy, cell
    # for cell: both are computed and compared a block of rows at a time
    game, lam = _load(source, structure, nature)
    matrix = build_matrix(game, lam)
    rows, cols, weighted, f_col, den = _weighted_follow(game, lam)
    assert np.array_equal(matrix.rows.table, rows.table)
    assert np.array_equal(matrix.cols.table, cols.table)
    assert matrix.den == den
    assert matrix.shape == (len(rows), len(cols))
    every_col = list(range(len(cols)))
    for lo in range(0, len(rows), 4096):
        block = list(range(lo, min(lo + 4096, len(rows))))
        assert np.array_equal(weighted[lo:lo + 4096] @ f_col.T,
                              matrix.cells(block, every_col))


_CORPUS_CHECKS = [(entry, check) for entry in CORPUS for check in entry.checks]


def _check_id(entry, check):
    return f"{entry.name}/{check.structure or entry.game}"


def _load_check(entry, check):
    return load_game(corpus_text(entry.game or entry.formula),
                     check.structure and corpus_text(check.structure),
                     check.nature and corpus_text(check.nature))


# the checks whose unsettled game fits the strategy budget: all but
# phi_mh_prime_chance on doors3, whose falsifier has about 7.6e12 strategies
_VALUED_CHECKS = [(e, c) for e, c in _CORPUS_CHECKS
                  if c.expected is not None and (e.formula, c.structure)
                  != ("phi_mh_prime_chance.if", "doors3.struct")]


def _merged(m):
    """``m`` with equal rows, then equal columns, merged into the first of
    each set, and the rows and columns of ``m`` that it keeps."""
    def first(lines):
        seen = {}
        for i, line in enumerate(lines):
            seen.setdefault(line.tobytes(), i)
        return sorted(seen.values())

    num = dense(m)
    rows = first(num)
    cols = first(np.ascontiguousarray(num[rows].T))
    return PayoffMatrix(None, None, m.f_row[rows], m.f_col[cols], m.weights,
                        m.den), rows, cols


def _assert_solves_like_merged(m):
    """Pricing over every strategy takes the first one of an extreme score,
    the one a merge keeps, so merging changes neither the value nor the
    witness."""
    merged, rows, cols = _merged(m)
    eq, want = solve_zero_sum(m), solve_zero_sum(merged)
    assert eq.value == want.value
    assert eq.row_mix == tuple((rows[i], w) for i, w in want.row_mix)
    assert eq.col_mix == tuple((cols[j], w) for j, w in want.col_mix)
    return merged.shape != m.shape


@pytest.mark.parametrize("entry, check", _VALUED_CHECKS,
                         ids=[_check_id(e, c) for e, c in _VALUED_CHECKS])
def test_merging_changes_no_witness(entry, check):
    # on the settled matrix that ``solve`` solves
    game, lam = _load_check(entry, check)
    _assert_solves_like_merged(solve(game, lam).matrix)


def test_random_sentences_merging_changes_no_witness():
    """Seeds 0-399 at a budget of 10**4, on the unsettled matrix."""
    merged = 0
    for seed in range(400):
        game, lam = load_game(*seeded_sentence(seed))
        try:
            matrix = build_matrix(game, lam, budget=10**4)
        except BudgetError:
            continue
        merged += _assert_solves_like_merged(matrix)
    assert merged >= 100, merged


def test_denominator_above_int64_is_exact():
    # the coin's masses need 65 bits: the weights are Python integers and
    # the value is the biased coin's p (1 - p)
    den = 2**64 + 1
    game, lam = load_game(corpus_text("stochastic_matching_pennies.if"),
                          corpus_text("binary.struct"),
                          f"z : 0 -> 1/{den}, 1 -> {den - 1}/{den}\n")
    matrix = build_matrix(game, lam)
    assert matrix.weights.dtype == object
    assert solve(game, lam).value == F(2**64, (2**64 + 1)**2)


# three coins whose masses 1/p on 0 need 96 bits together; the verifier
# wins when all three agree
_THREE_PRIMES = (4294967311, 4294967291, 4294967279)
_THREE_COINS = "".join(f"{v} : 0 -> 1/{p}, 1 -> {p - 1}/{p}\n"
                       for v, p in zip("xzy", _THREE_PRIMES))


def test_three_coins_with_a_96_bit_denominator_are_exact():
    game, lam = load_game(
        "chance x chance z chance y exists w ((w = x) /\\ (w = z) /\\ (w = y))",
        corpus_text("binary.struct"), _THREE_COINS)
    want = (1 + math.prod(p - 1 for p in _THREE_PRIMES)) / F(math.prod(_THREE_PRIMES))
    assert want == F(79228162329796895877195892201, 79228162385137128025310102779)
    eq = solve(game, lam)
    assert eq.value == want
    assert eq.matrix.den > np.iinfo(np.int64).max
    assert eq.matrix.weights.dtype == object
    assert conditional_value(game, lam, eq.row_strategies(), eq.col_strategies(),
                             None).value == want


def test_settled_corpus_weights_are_int64():
    for entry, check in _CORPUS_CHECKS:
        small, small_lam, _ = solver._settled(*_load_check(entry, check))
        assert build_matrix(small, small_lam).weights.dtype == np.int64, \
            _check_id(entry, check)


def test_follow_matrix_matches_follows(fig1_game):
    wins = [t for t in fig1_game.terminals() if fig1_game.winner_of[t] == EXIST]
    for player in (EXIST, UNIV):
        strats = enumerate_reduced(fig1_game, player)
        table = follow_matrix(strats, wins)
        assert table.shape == (len(strats), len(wins))
        for j, node in enumerate(wins):
            assert table[:, j].tolist() == [follows(node, s) for s in strats]


def test_build_matrix_cell_budget(monkeypatch):
    game = build_semantic_game(Structure(("0", "1")),
                               parse_formula("forall x (exists y/{x}) x = y"))
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 3)
    with pytest.raises(BudgetError) as info:
        build_matrix(game, uniform_nature(game))
    assert (info.value.what, info.value.limit, info.value.reached) == \
        ("payoff cell", 3, 4)


def test_build_matrix_follow_cell_budget(monkeypatch, sb_game):
    # 31 x 1 payoff cells are within the budget, 31 x 5 follow cells are not
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 31)
    with pytest.raises(BudgetError) as info:
        build_matrix(sb_game, uniform_nature(sb_game))
    assert (info.value.what, info.value.limit, info.value.reached) == \
        ("follow cell", 31, 155)


def test_build_matrix_single_column_when_no_falsifier_choices(sb_game):
    matrix = build_matrix(sb_game, uniform_nature(sb_game))
    strategies = (len(enumerate_reduced(sb_game, EXIST)),
                  len(enumerate_reduced(sb_game, UNIV)))
    assert strategies == (31, 1)
    assert (len(matrix.rows), len(matrix.cols)) == matrix.shape == (31, 1)


def test_reduce_preserves_value_phi_mh(mh_solution, mh_game):
    # settling reduces the tree before the matrix exists and keeps the
    # value of the matrix as built
    matrix, eq = mh_solution
    assert solve(mh_game, uniform_nature(mh_game)).value == eq.value == F(2, 3)


def test_reduce_fig1_weak_dominance_keeps_value(fig1_solution, fig1_game):
    # unsettled, weak dominance is nowhere applied; settled, it is applied
    # on the tree, and the value is the same
    matrix, eq = fig1_solution
    assert solve(fig1_game, uniform_nature(fig1_game)).value == eq.value \
        == F(2, 3)


def _corrupt_first_cell(monkeypatch):
    """Patch ``PayoffMatrix.cells`` to flip the first cell of every
    restricted set: cell c reads den - c."""
    honest = PayoffMatrix.cells

    def corrupt(self, rset, cset):
        out = honest(self, rset, cset)
        out[0, 0] = self.den - out[0, 0]
        return out

    monkeypatch.setattr(PayoffMatrix, "cells", corrupt)


@pytest.mark.parametrize("cap", [solver.DEFAULT_SIMPLEX_CAP, 0],
                         ids=["whole", "column-generation"])
def test_solve_rejects_a_corrupted_restricted_cell(monkeypatch, cap):
    # matching pennies on n elements with its first cell flipped from 1 to
    # 0 has a restricted LP of another value than 1/n; pricing and
    # verification read every strategy straight from the follow tables and
    # refuse its witness
    monkeypatch.setattr(solver, "DEFAULT_SIMPLEX_CAP", cap)
    for n in (2, 3, 4):
        game, lam = _load("matching_pennies.if", f"pennies_{n}.struct", None)
        assert solve(game, lam).value == F(1, n)
        with monkeypatch.context() as patch:
            _corrupt_first_cell(patch)
            with pytest.raises(GameError):
                solve(game, lam)


def _rational_mix(rng, n):
    """A mix over up to four of ``n`` strategies, with random rational
    masses."""
    support = rng.sample(range(n), rng.randint(1, min(n, 4)))
    parts = [rng.randint(1, 12) for _ in support]
    return tuple((i, F(p, sum(parts))) for i, p in zip(support, parts))


def test_mix_scores_equal_the_full_product():
    """On the corpus and seeds 0-399 at a budget of 10**4: the exact scores
    of random rational mixes over the strategies, read from the follow
    tables, equal the product of the enumerated full matrix, on both
    sides."""
    games = [_load_check(e, c) for e, c in _CORPUS_CHECKS]
    games += [load_game(*seeded_sentence(seed)) for seed in range(400)]
    rng = random.Random(21)
    checked = 0
    for game, lam in games:
        try:
            matrix = build_matrix(game, lam, budget=10**4)
            rows, cols, num, den = _full_matrix(game, lam, budget=10**4)
        except BudgetError:
            continue
        assert np.array_equal(matrix.rows.table, rows.table)
        assert np.array_equal(matrix.cols.table, cols.table)
        table = num.astype(object)
        for _ in range(3):
            for mine, other, cells in ((matrix.f_row, matrix.f_col, table),
                                       (matrix.f_col, matrix.f_row, table.T)):
                mix = _rational_mix(rng, len(mine))
                scores, scale = _exact_mix_scores(mine, other, matrix.weights,
                                                  matrix.den, mix)
                q = math.lcm(*(w.denominator for _, w in mix))
                assert scale == den * q
                want = sum(int(w * q) * cells[i] for i, w in mix)
                assert [int(s) for s in scores] == list(want)
        checked += 1
    assert checked >= 380


def test_solve_one_by_one():
    m = Structure(("1",), relations={"T": (1, frozenset({("1",)}))})
    game = build_semantic_game(m, parse_formula("T(1)"))
    matrix = build_matrix(game, uniform_nature(game))
    assert matrix.shape == (1, 1)
    eq = solve_zero_sum(matrix)
    assert eq.value == 1


def test_solve_matching_pennies_mixes():
    m = Structure(("0", "1"))
    game = build_semantic_game(m, parse_formula("forall x (exists y/{x}) x = y"))
    eq = solve_zero_sum(build_matrix(game, uniform_nature(game)))
    assert eq.value == F(1, 2)
    assert dict(eq.row_mix) == {0: F(1, 2), 1: F(1, 2)}
    assert dict(eq.col_mix) == {0: F(1, 2), 1: F(1, 2)}


def test_solve_int_matrix_direct():
    value, rows, cols = _solve_int_matrix([[1, 0], [0, 2]], 3)
    assert value == F(2, 9)
    assert dict(rows) == {0: F(2, 3), 1: F(1, 3)}


def test_direct_and_column_generation_agree(monkeypatch):
    import random as _random
    import numpy as _np

    rng = _random.Random(99)
    for trial in range(40):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        den = rng.choice([1, 2, 3, 6, 9])
        num = _np.array([[rng.randrange(0, den + 1) for _ in range(cols)]
                         for _ in range(rows)], dtype=_np.int64)
        matrix = as_follow_tables(num, den)
        value, row_mix, col_mix = _solve_int_matrix(num.tolist(), den)
        direct = Equilibrium(value, tuple(row_mix), tuple(col_mix), matrix)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "DEFAULT_SIMPLEX_CAP", 0)
            oracle = solve_zero_sum(matrix)
        assert direct.value == oracle.value, (trial, num, den)
        assert verify_equilibrium(matrix, direct)
        assert verify_equilibrium(matrix, oracle)


def test_simplex_degenerate_matrices():
    for den in (1, 7):
        for cells, want in ([[0]], F(0)), ([[1]], F(1)), \
                           ([[0, 0], [0, 0]], F(0)), ([[1, 1], [1, 1]], F(1)):
            num = [[c * den for c in row] for row in cells]
            value, _, _ = _solve_int_matrix(num, den)
            assert value == want


def _fraction_simplex_max(a: list[list[Fraction]]):
    """Reference for ``_simplex_max``: max 1'y  s.t.  a y <= 1, y >= 0 (all
    entries of ``a`` positive) on a ``Fraction`` tableau, Bland's rule on
    entering and leaving choices.  Returns (value, y, duals)."""
    n_rows = len(a)
    n_cols = len(a[0])
    width = n_cols + n_rows + 1
    one = Fraction(1)
    zero = Fraction(0)
    tableau = []
    for i in range(n_rows):
        row = list(a[i]) + [zero] * n_rows + [one]
        row[n_cols + i] = one
        tableau.append(row)
    obj = [-one] * n_cols + [zero] * (n_rows + 1)
    basis = list(range(n_cols, n_cols + n_rows))
    while True:
        enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(n_rows):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise GameError("unbounded game LP; matrix entries out of range")
        pivot_row = tableau[leave]
        coef = pivot_row[enter]
        if coef != 1:
            tableau[leave] = pivot_row = [x / coef for x in pivot_row]
        for i in range(n_rows):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                row = tableau[i]
                tableau[i] = [row[k] - f * pivot_row[k] for k in range(width)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [obj[k] - f * pivot_row[k] for k in range(width)]
        basis[leave] = enter
    y = [zero] * n_cols
    for i, b in enumerate(basis):
        if b < n_cols:
            y[b] = tableau[i][-1]
    duals = [obj[n_cols + i] for i in range(n_rows)]
    return obj[-1], y, duals


def _random_lp(rng, s):
    """A shifted payoff matrix ``num + s`` with ``num`` in [0, s]: often with
    equal ratios in the first ratio test, sometimes with all rows equal."""
    rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
    if rng.random() < 0.1:
        line = [s + rng.randrange(0, s + 1) for _ in range(cols)]
        return [list(line) for _ in range(rows)]
    levels = [rng.randrange(0, s + 1) for _ in range(rng.randrange(1, 4))]
    return [[s + rng.choice(levels) for _ in range(cols)] for _ in range(rows)]


def test_integer_simplex_matches_fraction_reference():
    import random as _random

    rng = _random.Random(2024)
    ties = equal_rows = 0
    cases = [(s, _random_lp(rng, s))
             for s in rng.choices([1, 2, 3, 6, 7, 9, 12], k=1200)]
    cases += [(MERSENNE_61, _random_lp(rng, MERSENNE_61)) for _ in range(40)]
    for s, a in cases:
        got = _simplex_max(a, s)
        want = _fraction_simplex_max([[F(x, s) for x in row] for row in a])
        assert got == want, (s, a)
        first = [row[0] for row in a]
        ties += first.count(max(first)) > 1  # tied ratios at the first pivot
        equal_rows += len(a) > 1 and all(row == a[0] for row in a)
    assert ties > 300 and equal_rows > 50


def test_verify_equilibrium_rejects_bad_claim():
    m = Structure(("0", "1"))
    game = build_semantic_game(m, parse_formula("forall x (exists y/{x}) x = y"))
    matrix = build_matrix(game, uniform_nature(game))
    eq = solve_zero_sum(matrix)
    bad = Equilibrium(F(1, 2), ((0, F(1)),), eq.col_mix, matrix)
    assert verify_equilibrium(matrix, eq)
    assert not verify_equilibrium(matrix, bad)



def _random_mix(rng, n, q):
    """A mix over ``n`` strategies whose masses have lcm denominator ``q``
    (a prime): ``q`` split into at least two positive parts."""
    cuts = sorted(rng.sample(range(1, q), rng.randrange(1, min(q, n))))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return tuple(zip(rng.sample(range(n), len(parts)), (F(k, q) for k in parts)))


@pytest.mark.parametrize("q", [2, 3], ids=["int64", "object"])
def test_exact_mix_scores_near_int64_limit(q):
    # den * q is 2**62 - 2 for halves, which int64 holds, and
    # 3 * 2**61 - 3 for thirds, beyond 2**62, where the scores are Python
    # integers
    den = 2**61 - 1
    rng = random.Random(q)
    for trial in range(40):
        n_rows, n_cols = rng.randrange(3, 6), rng.randrange(3, 6)
        cells = [[rng.choice([0, 1, den - 1, den, rng.randrange(den + 1)])
                  for _ in range(n_cols)] for _ in range(n_rows)]
        m = as_follow_tables(cells, den)
        row_mix = _random_mix(rng, n_rows, q)
        col_mix = _random_mix(rng, n_cols, q)
        against_cols = [sum(w * F(cells[i][j], den) for i, w in row_mix)
                        for j in range(n_cols)]
        against_rows = [sum(w * F(cells[i][j], den) for j, w in col_mix)
                        for i in range(n_rows)]
        for mine, other, mix, want in ((m.f_row, m.f_col, row_mix, against_cols),
                                       (m.f_col, m.f_row, col_mix, against_rows)):
            scores, scale = _exact_mix_scores(mine, other, m.weights, den, mix)
            assert scale == den * q
            assert scores.dtype == (np.int64 if q == 2 else object)
            assert [F(int(s), scale) for s in scores] == want


@pytest.mark.parametrize("n", [2, 3], ids=["int64", "object"])
def test_verify_equilibrium_near_int64_limit(n):
    # matching pennies on n elements, scaled to den = 2**61 - 1: the
    # uniform mixes have denominator n, so the check runs in int64 for
    # n = 2 and on Python integers for n = 3
    den = 2**61 - 1
    matrix = as_follow_tables(np.eye(n, dtype=np.int64) * den, den)
    uniform = tuple((k, F(1, n)) for k in range(n))
    skewed = ((0, F(2, 3)), (1, F(1, 3))) if n == 3 else ((0, F(1)),)
    assert verify_equilibrium(matrix, Equilibrium(F(1, n), uniform, uniform,
                                                  matrix))
    for claim in (Equilibrium(F(1, 2) if n == 3 else F(1, 3), uniform,
                              uniform, matrix),
                  Equilibrium(F(1, n), skewed, uniform, matrix),
                  Equilibrium(F(1, n), uniform, skewed, matrix)):
        assert not verify_equilibrium(matrix, claim)
    assert solve_zero_sum(matrix).value == F(1, n)


def test_unverified_equilibrium_raises(monkeypatch):
    # a plain assert would vanish under python -O and let the value through
    m = Structure(("0", "1"))
    game = build_semantic_game(m, parse_formula("forall x (exists y/{x}) x = y"))
    matrix = build_matrix(game, uniform_nature(game))
    monkeypatch.setattr(solver, "verify_equilibrium", lambda m, eq: False)
    with pytest.raises(GameError):
        solve_zero_sum(matrix)


def test_verify_fig3_paper_profile(fig1_solution, fig1_game):
    matrix, _ = fig1_solution
    order_r, order_c = fig1_named_order(fig1_game)
    mu = tuple((order_r[3 + k], F(1, 3)) for k in range(3))  # switch rows
    nu = tuple((j, F(1, 6)) for j in order_c)
    assert verify_equilibrium(matrix, Equilibrium(F(2, 3), mu, nu, matrix))


def test_truth_values_match_paper(mh_solution, mh_prime_solution,
                                  mh_chance_solution):
    assert mh_solution[1].value == F(2, 3)
    assert mh_prime_solution[1].value == F(1, 3)
    assert mh_chance_solution[1].value == F(7, 9)


def test_truth_value_stochastic_matching_pennies(smp_game):
    lam = parse_nature_strategy(corpus_text("biased_coin.nat"), smp_game)
    matrix = build_matrix(smp_game, lam)
    assert matrix.shape == (2, 2)
    assert [[cell(matrix, i, j) for j in range(2)] for i in range(2)] == \
        [[F(1, 3), F(0)], [F(0), F(2, 3)]]
    eq = solve_zero_sum(matrix)
    assert eq.value == F(2, 9)
    # the analyzed profile p = q = 2/3 is an equilibrium of the matrix
    profile = Equilibrium(F(2, 9), ((0, F(2, 3)), (1, F(1, 3))),
                          ((0, F(2, 3)), (1, F(1, 3))), matrix)
    assert verify_equilibrium(matrix, profile)


def test_classical_status(binary, doors3):
    # a finite win-lose game has value 1 (0) exactly when the verifier
    # (falsifier) has a winning strategy; anything between is indeterminate
    copycat = parse_formula("forall x exists y (x = y)")
    assert truth_value(binary, copycat).value == 1
    assert truth_value(binary, negate(copycat)).value == 0
    mp = parse_formula("forall x (exists y/{x}) x = y")
    for n in (2, 3, 4, 5):
        m = parse_structure(corpus_text(f"pennies_{n}.struct"))
        assert truth_value(m, mp).value == F(1, n)


def test_classical_status_rejects_chance(sb_structure, phi_sb):
    # a chance sentence has no classical status: its value is a
    # probability, here strictly between false and true
    assert any(isinstance(sub, (ChanceOr, ChanceQ))
               for _, sub in occurrences(phi_sb))
    assert 0 < truth_value(sb_structure, phi_sb).value < 1


def _sb_mix(game, p):
    heads = from_rules(
        game, EXIST, lambda info: "L" if info.label == "@/0/0/1[]"
        else ("L" if "t=2,x=1" in info.label else "R"))
    tails = from_rules(
        game, EXIST, lambda info: "R" if info.label == "@/0/0/1[]"
        else ("L" if "t=2,x=1" in info.label else "R"))
    return MixedStrategy(EXIST, [(heads, p), (tails, 1 - p)])


def test_conditional_sb_family(sb_game):
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    awake = parse_event("Awake(x,t)", sb_game)
    for p in (F(0), F(1, 4), F(1, 2), F(1)):
        mix = _sb_mix(sb_game, p)
        whole = conditional_value(sb_game, lam, mix, tau, None)
        assert whole.value == (3 - p) / 4
        cond = conditional_value(sb_game, lam, mix, tau, awake)
        assert cond.value == (2 - p) / 3
        assert cond.p_event == F(3, 4)
    assert conditional_value(sb_game, lam, _sb_mix(sb_game, F(1)), tau,
                             awake).value == F(1, 3)


def _sleeping_beauty_on(k):
    """Sleeping Beauty over k days: the structure, a fair coin on Heads (1)
    and Tails (2) with mass 0 on the other elements, and the always-Heads
    profile (R where Awake, else L; Heads at the slashed disjunction)."""
    days = range(1, k + 1)
    structure = (f"universe {' '.join(map(str, days))}\n"
                 "rel Heads/1: (1)\nrel Tails/1: (2)\n"
                 f"rel Awake/2: (1,1) {' '.join(f'(2,{t})' for t in days)}\n")
    nature = "x : 1 -> 1/2, 2 -> 1/2" + "".join(f", {x} -> 0" for x in days[2:])
    rows = [f"@/0/0[t={t},x={x}] -> {'R' if x == 2 or x == t == 1 else 'L'}"
            for x in days for t in days]
    profile = "row 1 {\n" + "\n".join(rows + ["@/0/0/1[] -> L"]) + "\n}\n"
    return structure, nature + "\n", profile


@pytest.mark.parametrize("k", range(2, 8))
def test_sleeping_beauty_on_k_days(k):
    # awake once on Heads and k times on Tails: the value is (2k - 1)/(2k),
    # and always guessing Heads wins 1/(k + 1) of the awakenings, the
    # thirder answer at k = 2
    structure, nature, profile = _sleeping_beauty_on(k)
    game, lam = load_game(corpus_text("phi_sb.if"), structure, nature)
    assert solve(game, lam).value == F(2 * k - 1, 2 * k)
    row_mix, col_mix = parse_profile(profile, game)
    awake = parse_event("Awake(x,t)", game)
    assert conditional_value(game, lam, row_mix, col_mix, awake).value \
        == F(1, k + 1)


def test_conditional_whole_space_is_expected_payoff(sb_game):
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    mix = _sb_mix(sb_game, F(1, 2))
    cond = conditional_value(sb_game, lam, mix, tau, None)
    assert cond.p_event == 1
    # the expected payoff of the family above, (3 - p) / 4 at p = 1/2
    assert cond.value == cond.p_win_and_event == F(5, 8)


def test_conditional_zero_probability_event(sb_game):
    lam = parse_nature_strategy(corpus_text("sb_lambda_prime.nat"), sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    event = parse_event("x = 1 and t = 2", sb_game)
    with pytest.raises(ZeroProbabilityEventError):
        conditional_value(sb_game, lam, _sb_mix(sb_game, F(1)), tau, event)


def _copy_game_partial():
    """``forall x exists y (x = y)`` on two elements, the verifier's strategy
    that copies x but has no action at the set where x = 2, and the
    falsifier's two strategies (x = 1, x = 2)."""
    game = build_semantic_game(Structure(("1", "2")),
                               parse_formula("forall x exists y (x = y)"))
    assert game.information_partition(EXIST)[0].label == "@/0[x=1]"
    partial = ReducedStrategy(game, EXIST, {0: 0})
    return game, partial, enumerate_reduced(game, UNIV)


def test_conditional_undefined_on_reached_set_raises():
    game, partial, (x1, x2) = _copy_game_partial()
    lam = uniform_nature(game)
    for col_mix in (MixedStrategy.pure(x2),
                    MixedStrategy(UNIV, [(x1, F(1, 2)), (x2, F(1, 2))])):
        with pytest.raises(GameError,
                           match=r"undefined at reachable set @/0\[x=2\]"):
            conditional_value(game, lam, MixedStrategy.pure(partial), col_mix,
                              None)


def test_conditional_undefined_only_on_unreached_set():
    game, partial, (x1, _) = _copy_game_partial()
    result = conditional_value(game, uniform_nature(game),
                               MixedStrategy.pure(partial),
                               MixedStrategy.pure(x1), None)
    assert (result.p_event, result.value) == (1, 1)


def test_conditional_coherence(sb_game, sb_prime_game):
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    mix = _sb_mix(sb_game, F(1, 3))
    event = parse_event("Awake(x,t)", sb_game)
    complement = parse_event("not Awake(x,t)", sb_game)
    c1 = conditional_value(sb_game, lam, mix, tau, event)
    c2 = conditional_value(sb_game, lam, mix, tau, complement)
    total = conditional_value(sb_game, lam, mix, tau, None).value
    assert c1.p_event + c2.p_event == 1
    assert c1.value * c1.p_event + c2.value * c2.p_event == total


def test_duality_small_corpus(binary, doors3, sb_structure, corpus_formulas):
    cheap = [
        ("matching_pennies.if", binary),
        ("classical_true_copycat.if", doors3),
        ("classical_false_lone_element.if", doors3),
        ("classical_true_some_heads.if", sb_structure),
        ("classical_true_heads_or_tails.if", sb_structure),
        ("classical_true_some_sleeping.if", sb_structure),
        ("classical_false_always_awake.if", sb_structure),
        ("classical_true_tails_always_awake.if", sb_structure),
        ("classical_false_sleeper_every_day.if", sb_structure),
        ("classical_true_heads_is_monday.if", sb_structure),
        ("classical_false_tails_monday.if", sb_structure),
    ]
    for name, structure in cheap:
        phi = corpus_formulas[name]
        assert truth_value(structure, negate(phi)).value == \
            1 - truth_value(structure, phi).value, name


def test_bivalence_classical_corpus(corpus_formulas, doors3, sb_structure):
    values = {}
    for name, phi in corpus_formulas.items():
        if not name.startswith("classical"):
            continue
        assert not any(isinstance(sub, (ChanceOr, ChanceQ))
                       or getattr(sub, "slash", None)
                       for _, sub in occurrences(phi))
        structure = doors3 if "copycat" in name or "lone" in name else sb_structure
        values[name] = truth_value(structure, phi).value
        assert values[name] in (F(0), F(1))
    assert len(values) == 10
    for name, value in values.items():
        assert (value == 1) == ("_true_" in name)


def test_random_sentences_duality_and_bivalence():
    """On seeded random sentences: v(phi) + v(~phi) = 1, and a sentence
    without slashes or chance has the value 0 or 1."""
    stopped = bivalent = 0
    for seed in range(400):
        sentence, universe = seeded_sentence(seed)
        structure, phi = parse_structure(universe), parse_formula(sentence)
        try:
            value = truth_value(structure, phi, budget=10**4).value
            dual = truth_value(structure, negate(phi), budget=10**4).value
        except BudgetError:
            stopped += 1
            continue
        assert value + dual == 1, seed
        if not any(isinstance(sub, (ChanceOr, ChanceQ))
                   or getattr(sub, "slash", None)
                   for _, sub in occurrences(phi)):
            assert value in (0, 1), seed
            bivalent += 1
    assert stopped <= 20
    assert bivalent >= 50


def test_simulate_deterministic_game(fig1_game):
    lam = uniform_nature(fig1_game)
    rows = enumerate_reduced(fig1_game, EXIST)
    cols = enumerate_reduced(fig1_game, UNIV)
    sigma = MixedStrategy.pure(rows[0])
    tau = MixedStrategy.pure(cols[0])
    exact = conditional_value(fig1_game, lam, sigma, tau, None).value
    report = simulate(fig1_game, lam, sigma, tau, plays=50, seed=9)
    assert report.win_frequency in (F(0), F(1))
    assert report.win_frequency == exact


def test_simulate_rejects_a_negative_seed(fig1_game):
    # random.Random(-5) seeds like random.Random(5), so -5 would replay 5
    lam = uniform_nature(fig1_game)
    sigma = MixedStrategy.pure(enumerate_reduced(fig1_game, EXIST)[0])
    tau = MixedStrategy.pure(enumerate_reduced(fig1_game, UNIV)[0])
    with pytest.raises(GameError, match="^seed must be non-negative$"):
        simulate(fig1_game, lam, sigma, tau, plays=50, seed=-5)
    assert simulate(fig1_game, lam, sigma, tau, plays=50, seed=0).plays == 50


def test_simulate_reproducible(sb_game):
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    mix = _sb_mix(sb_game, F(1, 2))
    events = {"awake": parse_event("Awake(x,t)", sb_game)}
    a = simulate(sb_game, lam, mix, tau, plays=2000, seed=42, events=events)
    b = simulate(sb_game, lam, mix, tau, plays=2000, seed=42, events=events)
    assert (a.wins, a.event_counts) == (b.wins, b.event_counts)
    c = simulate(sb_game, lam, mix, tau, plays=2000, seed=43, events=events)
    assert (a.wins, a.event_counts) != (c.wins, c.event_counts)


def test_simulate_golden(sb_game, smp_game):
    golden = json.loads((GOLDEN / "simulation.json").read_text())
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    report = simulate(sb_game, lam, _sb_mix(sb_game, F(0)), tau,
                      plays=10_000, seed=2025,
                      events={"awake": parse_event("Awake(x,t)", sb_game)})
    want = golden["sleeping-beauty-tails"]
    assert report.wins == want["wins"]
    assert report.event_counts["awake"] == tuple(want["awake"])

    lam2 = parse_nature_strategy(corpus_text("biased_coin.nat"), smp_game)
    rows = enumerate_reduced(smp_game, EXIST)
    cols = enumerate_reduced(smp_game, UNIV)
    mu = MixedStrategy(EXIST, [(rows[0], F(2, 3)), (rows[1], F(1, 3))])
    nu = MixedStrategy(UNIV, [(cols[0], F(2, 3)), (cols[1], F(1, 3))])
    report = simulate(smp_game, lam2, mu, nu, plays=10_000, seed=2025)
    assert report.wins == golden["stochastic-matching-pennies"]["wins"]


# ------------------------------------------------------------ the sampler

def _scalar_thresholds(masses):
    """Common denominator and cumulative thresholds, scaled by 2**64."""
    den = math.lcm(*(m.denominator for m in masses))
    cum, out = 0, []
    for m in masses:
        cum += int(m * den)
        out.append(cum << 64)
    return den, out


def _scalar_pick(draw, dist):
    """Inversion sampling of one 64-bit draw: the index of the first
    threshold above the scaled draw (the last index if none is)."""
    den, cums = dist
    return min(bisect.bisect_right(cums, draw * den), len(cums) - 1)


def _words_per_play(g):
    """2 plus the most chance moves on any root-to-terminal path of ``g``."""
    moves = [0] * len(g)
    for node in range(len(g)):  # parents come before their children
        for kid in g.children[node]:
            moves[kid] = moves[node] + (g.owner[node] == NATURE)
    return 2 + max(moves)


def _scalar_plays(g, lam, row_mix, col_mix, plays, rng):
    """Each play's terminal, one play at a time: the per-play loop that
    ``simulate`` replaced, kept as the reference for its draws.  Every play
    draws a run of ``_words_per_play(g)`` words: its row pick, its column
    pick, then one per chance move in play order, the rest unread."""
    width = _words_per_play(g)
    row_dist = _scalar_thresholds(tuple(w for _, w in row_mix.support))
    col_dist = _scalar_thresholds(tuple(w for _, w in col_mix.support))
    chance = {node: _scalar_thresholds(dist) for node, dist in lam.dists.items()}
    row_plans = [dict(s.actions) for s, _ in row_mix.support]
    col_plans = [dict(s.actions) for s, _ in col_mix.support]
    owner, children, infoset = g.owner, g.children, g.infoset
    for _ in range(plays):
        run = [rng.getrandbits(64) for _ in range(width)]
        sigma = row_plans[_scalar_pick(run[0], row_dist)]
        tau = col_plans[_scalar_pick(run[1], col_dist)]
        draws = iter(run[2:])
        node = g.root
        while owner[node] != TERMINAL:
            if owner[node] == NATURE:
                node = children[node][_scalar_pick(next(draws), chance[node])]
            else:
                strat = sigma if owner[node] == EXIST else tau
                act = strat.get(infoset[node])
                if act is None:
                    raise GameError("profile strategy undefined on a reached set")
                node = children[node][act]
        yield node


def _scalar_report(g, terminals, seed, events):
    visits = Counter(terminals)
    won = {t: g.winner_of[t] == EXIST for t in visits}
    wins = sum(count for t, count in visits.items() if won[t])
    event_counts = {}
    for name, event in (events or {}).items():
        hit = [t for t in visits if event.holds(g, t)]
        event_counts[name] = (sum(visits[t] for t in hit),
                              sum(visits[t] for t in hit if won[t]))
    plays = len(terminals)
    return SimulationReport(plays, seed, wins, F(wins, plays), event_counts)


def _scalar_simulate(g, lam, row_mix, col_mix, plays, seed, events=None):
    """Reference for ``simulate``: the same report from the per-play loop."""
    terminals = list(_scalar_plays(g, lam, row_mix, col_mix, plays,
                                   random.Random(seed)))
    return _scalar_report(g, terminals, seed, events)


# every corpus game with each of its profiles: the solved equilibrium of a
# valued check (None) and every pinned profile
_CORPUS_PROFILES = [
    (entry, check, profile) for entry, check in _CORPUS_CHECKS
    for profile in ([None] if check.expected is not None else [])
    + sorted({q.profile for q in check.queries})
]
# every play of a corpus game meets the same number of chance moves; here a
# play meets one (x = 1) or two, so a run of draws is not always read whole
_VARIABLE_DEPTH = "chance x ((x = 1) \\/ chance z (z = x))"


@pytest.mark.parametrize(
    "entry, check, profile", _CORPUS_PROFILES + [(None, None, None)],
    ids=[f"{_check_id(e, c)}/{p or 'solve'}" for e, c, p in _CORPUS_PROFILES]
    + ["variable-depth/solve"])
def test_simulate_matches_scalar_loop(entry, check, profile):
    if entry is None:
        game = build_semantic_game(Structure(("1", "2", "3")),
                                   parse_formula(_VARIABLE_DEPTH))
        lam = uniform_nature(game)
    else:
        game, lam = _load_check(entry, check)
    if profile is None:
        eq = solve(game, lam)
        if entry is None:
            assert eq.value == F(5, 9)
        row_mix, col_mix = eq.row_strategies(), eq.col_strategies()
        # the first variable takes its first value, when there is one
        names = game.variables()
        texts = [f"{names[0]} = {game.structure.universe[0]}"] if names else []
    else:
        row_mix, col_mix = parse_profile(corpus_text(profile), game)
        texts = [q.event for q in check.queries if q.profile == profile]
    events = {text: parse_event(text, game) for text in texts}
    width = _words_per_play(game)
    assert solver._Sampler(game, lam, row_mix, col_mix).words_per_play == width
    block = solver._SAMPLE_BLOCK_WORDS // width
    counts = (1, 2, block - 1, block, block + 1, 10_007)
    for seed in range(1, 21):
        # a play's draws do not depend on the plays after it, so every
        # count is a prefix of one scalar run
        terminals = list(_scalar_plays(game, lam, row_mix, col_mix,
                                       max(counts), random.Random(seed)))
        for plays in counts:
            got = simulate(game, lam, row_mix, col_mix, plays, seed, events)
            want = _scalar_report(game, terminals[:plays], seed, events)
            assert (got.wins, got.event_counts) == \
                (want.wins, want.event_counts), (seed, plays)


# both players move between the two chance moves, and after the second
_ALTERNATING = ("chance x exists y forall u chance z exists v "
                "((x = y /\\ z = v) \\/ u = v)")


def _alternating_game_and_mixes():
    """The game of ``_ALTERNATING`` on three elements, with a three-strategy
    verifier mix and a two-strategy falsifier mix of seeded rules."""
    game = build_semantic_game(Structure(("1", "2", "3")),
                               parse_formula(_ALTERNATING))
    rng = random.Random(7)

    def pick(info):
        return rng.randrange(len(info.actions))

    rows = [ReducedStrategy(game, EXIST, own_reachable_closure(game, EXIST, pick))
            for _ in range(3)]
    cols = [ReducedStrategy(game, UNIV, own_reachable_closure(game, UNIV, pick))
            for _ in range(2)]
    row_mix = MixedStrategy(EXIST, list(zip(rows, (F(1, 2), F(1, 3), F(1, 6)))))
    col_mix = MixedStrategy(UNIV, list(zip(cols, (F(3, 4), F(1, 4)))))
    return game, uniform_nature(game), row_mix, col_mix


def test_simulate_alternating_players_matches_scalar_loop():
    # every pair of a 3 x 2 profile, each stretch of decisions folded in
    # per pair, against the per-play loop around the block boundaries
    game, lam, row_mix, col_mix = _alternating_game_and_mixes()
    assert len({s.actions for s, _ in row_mix.support}) == 3
    assert len({s.actions for s, _ in col_mix.support}) == 2
    events = {"x = y": parse_event("x = y", game)}
    assert _words_per_play(game) == 4
    block = solver._SAMPLE_BLOCK_WORDS // 4
    counts = (1, block - 1, block, block + 1, 2 * block + 3)
    for seed in range(1, 6):
        terminals = list(_scalar_plays(game, lam, row_mix, col_mix,
                                       max(counts), random.Random(seed)))
        for plays in counts:
            got = simulate(game, lam, row_mix, col_mix, plays, seed, events)
            want = _scalar_report(game, terminals[:plays], seed, events)
            assert (got.wins, got.event_counts) == \
                (want.wins, want.event_counts), (seed, plays)


def test_simulate_stuck_between_chance_moves_as_scalar_loop():
    # the second falsifier strategy is undefined on the sets after x = 2:
    # a play that picks it there follows the verifier's y and then sticks
    # before the second chance move; simulate raises exactly when the
    # scalar loop does
    game, lam, row_mix, col_mix = _alternating_game_and_mixes()
    infosets = game.information_partition(UNIV)
    (full, _), (other, _) = col_mix.support
    partial = ReducedStrategy(game, UNIV, tuple(
        (k, act) for k, act in other.actions if "x=2" not in infosets[k].label))
    col_mix = MixedStrategy(UNIV, [(full, F(1, 2)), (partial, F(1, 2))])
    outcomes = set()
    for seed in range(1, 41):
        try:
            want = _scalar_simulate(game, lam, row_mix, col_mix, 3, seed)
        except GameError:
            with pytest.raises(GameError,
                               match="profile strategy undefined on a reached set"):
                simulate(game, lam, row_mix, col_mix, 3, seed)
            outcomes.add("raised")
            continue
        got = simulate(game, lam, row_mix, col_mix, 3, seed)
        assert (got.wins, got.event_counts) == (want.wins, want.event_counts)
        outcomes.add("played")
    assert outcomes == {"raised", "played"}


def test_bulk_draws_equal_single_draws():
    for k in (1, 2, 7, solver._SAMPLE_BLOCK_WORDS + 5):
        bulk, single = random.Random(k), random.Random(k)
        words = solver._draw_words(bulk, k)
        assert words.tolist() == [single.getrandbits(64) for _ in range(k)]
        assert bulk.getstate() == single.getstate()


class _Words:
    """Stands in for ``random.Random``: ``getrandbits(64)`` returns the
    given words in order."""

    def __init__(self, words):
        self.words = iter(words)

    def getrandbits(self, bits):
        return next(self.words)


@pytest.mark.parametrize("nature", [
    "z : 0 -> 1/2, 1 -> 1/2\n",
    "z : 0 -> 1/3, 1 -> 2/3\n",
    MERSENNE_COIN,
    "z : 0 -> 1, 1 -> 0\n",
    "z : 0 -> 0, 1 -> 1\n",
], ids=["den-2", "den-3", "den-2^61-1", "mass-1-then-0", "mass-0-then-1"])
def test_sampler_picks_at_threshold_boundaries(nature):
    # every draw at, just below and just above a pick boundary of the row
    # mix, the column mix and the chance move, in each of the three roles
    game, lam = load_game(corpus_text("stochastic_matching_pennies.if"),
                          corpus_text("binary.struct"), nature)
    rows = enumerate_reduced(game, EXIST)
    cols = enumerate_reduced(game, UNIV)
    row_mix = MixedStrategy(EXIST, [(rows[0], F(1, 3)), (rows[1], F(2, 3))])
    col_mix = MixedStrategy(UNIV, [(cols[0], F(1, 2)), (cols[1], F(1, 2))])
    chance = lam.distribution(game.chance_nodes()[0])
    draws = {0, 2**63, 2**64 - 1}
    for first in (F(1, 3), F(1, 2), chance[0]):
        edge = -(-(first.numerator << 64) // first.denominator)
        draws |= {edge - 1, edge, edge + 1}
    draws = sorted(d for d in draws if 0 <= d < 2**64)
    plays = [(a, b, c) for a in draws for b in draws for c in draws]
    words = [w for play in plays for w in play]
    sampler = solver._Sampler(game, lam, row_mix, col_mix)
    assert sampler.words_per_play == 3
    ends = sampler.walk(np.array(plays, dtype=np.uint64))
    want = list(_scalar_plays(game, lam, row_mix, col_mix, len(plays),
                              _Words(words)))
    assert ends.tolist() == want


def _sb_partial_mix(game):
    """Half the tails strategy, half its restriction to the sets without
    x = 2: undefined on the sets that a play reaches when the coin shows
    tails."""
    tails = _sb_mix(game, F(0)).support[0][0]
    infosets = game.information_partition(EXIST)
    partial = ReducedStrategy(game, EXIST, tuple(
        (k, act) for k, act in tails.actions if "x=2" not in infosets[k].label))
    return MixedStrategy(EXIST, [(tails, F(1, 2)), (partial, F(1, 2))])


def test_simulate_undefined_on_reached_set_raises(sb_game):
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    mix = _sb_partial_mix(sb_game)
    for seed in range(1, 6):
        for run in (_scalar_simulate, simulate):
            with pytest.raises(GameError,
                               match="profile strategy undefined on a reached set"):
                run(sb_game, lam, mix, tau, 50, seed)


def test_simulate_undefined_raises_as_scalar_loop_does(sb_game):
    # one play, which is stuck when it picks the partial strategy and the
    # coin shows tails: simulate raises exactly when the scalar loop does
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    mix = _sb_partial_mix(sb_game)
    outcomes = set()
    for seed in range(1, 41):
        try:
            want = _scalar_simulate(sb_game, lam, mix, tau, 1, seed)
        except GameError:
            with pytest.raises(GameError,
                               match="profile strategy undefined on a reached set"):
                simulate(sb_game, lam, mix, tau, 1, seed)
            outcomes.add("raised")
            continue
        got = simulate(sb_game, lam, mix, tau, 1, seed)
        assert (got.wins, got.event_counts) == (want.wins, want.event_counts)
        outcomes.add("played")
    assert outcomes == {"raised", "played"}
