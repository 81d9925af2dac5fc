"""Payoff matrices, reduction, the exact LP, conditioning, simulation."""

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
    GameError,
    MixedStrategy,
    ReducedStrategy,
    Structure,
    ZeroProbabilityEventError,
    build_matrix,
    build_semantic_game,
    classical_status,
    conditional_value,
    enumerate_reduced,
    expected_payoff,
    follows,
    information_partition,
    mixed_expected_payoff,
    negate,
    parse_event,
    parse_formula,
    parse_nature_strategy,
    parse_profile,
    parse_structure,
    reduce_matrix,
    reduced_from_rules,
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
    _chance_reach,
    _simplex_max,
    _solve_double_oracle,
    _smallest_int_dtype,
    _solve_int_matrix,
)

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
    return Fraction(int(m.num[i, j]), m.den)


def fig1_row_kinds(game):
    """Map each reduced contestant strategy index to (guess, stick|switch|mixed)."""
    rows = enumerate_reduced(game, EXIST)
    infos = information_partition(game, EXIST)
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
    infos = information_partition(game, UNIV)
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
    assert expected_payoff(fig1_game, lam, sigma1, tau1) == 1
    assert expected_payoff(fig1_game, lam, sigma1p, tau1) == 0


def test_expected_payoff_sb_always_tails(sb_game):
    lam = uniform_nature(sb_game)
    tails = reduced_from_rules(
        sb_game, EXIST,
        lambda info: "R" if info.label == "@/0/0/1[]"
        else ("L" if "t=2,x=1" in info.label else "R"))
    tau = enumerate_reduced(sb_game, UNIV)[0]
    assert expected_payoff(sb_game, lam, tails, tau) == F(3, 4)


def test_build_matrix_fig1_matches_fig3(fig1_solution, fig1_game):
    matrix, _, _ = fig1_solution
    # no two strategies share a follow class, so rows and columns are in
    # enumeration order (criterion 3 indexes them so too)
    assert matrix.shape == (len(matrix.rows), len(matrix.cols)) == (12, 6)
    assert matrix.row_origin.tolist() == list(range(12))
    assert matrix.col_origin.tolist() == list(range(6))
    order_r, order_c = fig1_named_order(fig1_game)
    got = [[int(matrix.num[i, j]) for j in order_c] for i in order_r]
    assert got == FIG3
    unnamed = [i for i in range(12) if i not in order_r]
    assert len(unnamed) == 6
    for i in unnamed:
        assert int(matrix.num[i].sum()) == 3  # three 1's and three 0's


def test_build_matrix_matching_pennies_identity():
    m = Structure(("0", "1"))
    game = build_semantic_game(m, parse_formula("forall x (exists y/{x}) x = y"))
    matrix = build_matrix(game, uniform_nature(game))
    assert matrix.shape == (2, 2)
    assert [[cell(matrix, i, j) for j in range(2)] for i in range(2)] == \
        [[F(1), F(0)], [F(0), F(1)]]


# den = 2**61 - 1 is above 2**53, so the int64 product runs; the cell
# 2**61 - 2 is one that a float64 product would round to 2**61.
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


def _follow_matrix(strats, nodes):
    """Reference for the follow tables: boolean (strategies x nodes), does
    the strategy follow the history, read off the enumeration table."""
    columns, own = np.ascontiguousarray(strats.table.T), strats.plan.own
    out = np.ones((len(nodes), len(strats)), dtype=bool)
    for j, node in enumerate(nodes):
        for ci, ai in own[node]:
            out[j] &= columns[ci] == ai
    return out.T


def _follow_classes(follow):
    """Reference for the follow classes: the first strategy of each class
    (strategies that follow the same nodes), in enumeration order.

    Each strategy's follow row is packed into 64-bit words, eight nodes to a
    byte; a stable sort by those words lists each class in enumeration
    order, so the first entry of each run of equal words is the class's
    first member.
    """
    by_node = follow.T.view(np.uint8)  # (nodes, strategies), 0 or 1
    packed = np.zeros((follow.shape[0], 8 * (len(by_node) // 64 + 1)),
                      dtype=np.uint8)
    shifts = np.arange(8, dtype=np.uint8)[:, None]
    for t in range(0, len(by_node), 8):
        group = by_node[t:t + 8]
        packed[:, t // 8] = np.bitwise_or.reduce(group << shifts[:len(group)])
    words = packed.view(np.uint64).T
    order = np.lexsort(words)
    ordered = words[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    return np.sort(order[first])


def _full_matrix(g, lam):
    """Reference for ``build_matrix``: the payoff matrix over every pair of
    enumerated reduced strategies, by the same exact product over the
    win-terminal follow tables, in blocks of rows."""
    rows = enumerate_reduced(g, EXIST)
    cols = enumerate_reduced(g, UNIV)
    win_nodes = [t for t in g.terminals() if g.winner_of[t] == EXIST]
    reach = _chance_reach(g, lam)
    masses = [reach[t] for t in win_nodes]
    den = math.lcm(*(mass.denominator for mass in masses))
    work = np.float64 if den <= 2**53 else np.int64
    weights = np.array([int(m * den) for m in masses], dtype=np.int64).astype(work)
    right = _follow_matrix(cols, win_nodes).T * weights[:, None]
    f_row = _follow_matrix(rows, win_nodes)
    num = np.empty((len(rows), len(cols)), dtype=_smallest_int_dtype(den))
    for start in range(0, len(rows), 1024):
        num[start:start + 1024] = f_row[start:start + 1024].astype(work) @ right
    return PayoffMatrix(rows, cols, num, den)


def _follow_class_index(strats, origin, wins):
    """Each strategy's row (column) in a built matrix, found from the win
    terminals it follows; checks that ``origin`` holds the first member of
    each class, in enumeration order."""
    keys = [tuple(follows(t, s) for t in wins) for s in strats]
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    assert origin.tolist() == sorted(first.values())
    where = {i: k for k, i in enumerate(origin.tolist())}
    return [where[first[key]] for key in keys]


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
    if nature == MERSENNE_COIN:
        assert matrix.den == MERSENNE_61
        assert int(matrix.num.max()) == MERSENNE_61 - 1
    if source.startswith("~"):
        assert (len(matrix.rows), len(matrix.cols)) == (4, 31)
        assert matrix.shape == (4, 23)  # 7 win terminals split 23 classes
    wins = [t for t in game.terminals() if game.winner_of[t] == EXIST]
    row_class = _follow_class_index(matrix.rows, matrix.row_origin, wins)
    col_class = _follow_class_index(matrix.cols, matrix.col_origin, wins)
    assert matrix.shape == (max(row_class) + 1, max(col_class) + 1)
    for i, sigma in enumerate(matrix.rows):
        for j, tau in enumerate(matrix.cols):
            assert cell(matrix, row_class[i], col_class[j]) == \
                expected_payoff(game, lam, sigma, tau)


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
    game, lam = _load(source, structure, nature)
    classes = build_matrix(game, lam)
    full = _full_matrix(game, lam)
    assert np.array_equal(
        full.num[np.ix_(classes.row_origin, classes.col_origin)], classes.num)
    got, want = reduce_matrix(classes), reduce_matrix(full)
    assert np.array_equal(got.num, want.num)
    assert got.row_origin.tolist() == want.row_origin.tolist()
    assert got.col_origin.tolist() == want.col_origin.tolist()
    assert got.log == want.log


_CORPUS_CHECKS = [(entry, check) for entry in CORPUS for check in entry.checks]


def _check_id(entry, check):
    return f"{entry.name}/{check.structure or entry.game}"


def _load_check(entry, check):
    return load_game(corpus_text(entry.game or entry.formula),
                     check.structure and corpus_text(check.structure),
                     check.nature and corpus_text(check.nature))


_VALUED_CHECKS = [(e, c) for e, c in _CORPUS_CHECKS if c.expected is not None]


@pytest.mark.parametrize("entry, check", _VALUED_CHECKS,
                         ids=[_check_id(e, c) for e, c in _VALUED_CHECKS])
def test_reduce_matrix_is_idempotent(entry, check):
    game, lam = _load_check(entry, check)
    once = reduce_matrix(build_matrix(game, lam))
    twice = reduce_matrix(once)
    assert np.array_equal(twice.num, once.num)
    assert twice.row_origin.tolist() == once.row_origin.tolist()
    assert twice.col_origin.tolist() == once.col_origin.tolist()
    assert twice.log == once.log
    if entry.formula == "phi_sb.if":
        assert once.log == ["rows: merged 27 duplicates (31 -> 4)",
                            "rows: removed 3 by strict dominance"]


def test_build_matrix_rejects_denominator_above_int64():
    den = 2**64 + 1
    game, lam = load_game(corpus_text("stochastic_matching_pennies.if"),
                          corpus_text("binary.struct"),
                          f"z : 0 -> 1/{den}, 1 -> {den - 1}/{den}\n")
    with pytest.raises(GameError, match="64-bit"):
        build_matrix(game, lam)


def test_follow_matrix_matches_follows(fig1_game):
    wins = [t for t in fig1_game.terminals() if fig1_game.winner_of[t] == EXIST]
    for player in (EXIST, UNIV):
        strats = enumerate_reduced(fig1_game, player)
        table = _follow_matrix(strats, wins)
        assert table.shape == (len(strats), len(wins))
        for j, node in enumerate(wins):
            assert table[:, j].tolist() == [follows(node, s) for s in strats]


@pytest.mark.parametrize("negate_first", [False, True],
                         ids=["rows-ge-cols", "cols-gt-rows"])
def test_build_matrix_blocks_agree(monkeypatch, negate_first):
    text = corpus_text("phi_sb_prime.if")
    if negate_first:
        text = f"~({text})"
    game, lam = load_game(text, corpus_text("sleeping_beauty.struct"),
                          BIASED_COIN_X)
    whole = build_matrix(game, lam)
    monkeypatch.setattr(solver, "_PRODUCT_BLOCK_CELLS", 9)  # blocks of 2
    blocked = build_matrix(game, lam)
    # follow classes of the 31 x 4 strategies
    assert whole.shape == ((4, 23) if negate_first else (11, 4))
    assert np.array_equal(whole.num, blocked.num)


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
    assert (len(matrix.rows), len(matrix.cols)) == (31, 1)
    assert matrix.shape == (11, 1)


def test_reduce_all_zero_matrix(sb_game):
    rows = enumerate_reduced(sb_game, EXIST)
    cols = enumerate_reduced(sb_game, UNIV)
    zero = PayoffMatrix(rows, cols, np.zeros((4, 3), dtype=np.int8), 1)
    reduced = reduce_matrix(zero)
    assert reduced.shape == (1, 1)
    assert cell(reduced, 0, 0) == 0
    # the merge counts the strategies that the matrix's rows stand for, one
    # each here, not the lists it indexes into
    assert reduced.log == ["rows: merged 3 duplicates (4 -> 1)",
                           "cols: merged 2 duplicates (3 -> 1)"]


def test_reduce_preserves_value_phi_mh(mh_solution):
    matrix, reduced, eq = mh_solution
    raw_eq = solve_zero_sum(matrix)
    assert raw_eq.value == eq.value == F(2, 3)


def test_reduce_fig1_weak_dominance_keeps_value(fig1_solution):
    matrix, reduced, eq = fig1_solution
    assert eq.value == F(2, 3)
    no_weak = reduce_matrix(matrix, use_weak_dominance=False)
    assert solve_zero_sum(no_weak).value == F(2, 3)


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


def test_direct_and_column_generation_agree():
    import random as _random
    import numpy as _np

    rng = _random.Random(99)
    for trial in range(40):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        den = rng.choice([1, 2, 3, 6, 9])
        num = _np.array([[rng.randrange(0, den + 1) for _ in range(cols)]
                         for _ in range(rows)], dtype=_np.int64)
        matrix = PayoffMatrix(None, None, num, den)
        value, row_mix, col_mix = _solve_int_matrix(num.tolist(), den)
        direct = Equilibrium(value, tuple(row_mix), tuple(col_mix), matrix)
        oracle = _solve_double_oracle(matrix)
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


def test_unverified_equilibrium_raises(monkeypatch):
    # a plain assert would vanish under python -O and let the value through
    m = Structure(("0", "1"))
    game = build_semantic_game(m, parse_formula("forall x (exists y/{x}) x = y"))
    matrix = build_matrix(game, uniform_nature(game))
    monkeypatch.setattr(solver, "verify_equilibrium", lambda m, eq: False)
    with pytest.raises(GameError):
        solve_zero_sum(matrix)


def test_verify_fig3_paper_profile(fig1_solution, fig1_game):
    matrix, _, _ = fig1_solution
    order_r, order_c = fig1_named_order(fig1_game)
    mu = tuple((order_r[3 + k], F(1, 3)) for k in range(3))  # switch rows
    nu = tuple((j, F(1, 6)) for j in order_c)
    assert verify_equilibrium(matrix, Equilibrium(F(2, 3), mu, nu, matrix))


def test_truth_values_match_paper(mh_solution, mh_prime_solution,
                                  mh_chance_solution):
    assert mh_solution[2].value == F(2, 3)
    assert mh_prime_solution[2].value == F(1, 3)
    assert mh_chance_solution[2].value == F(7, 9)


def test_truth_value_stochastic_matching_pennies(smp_game):
    lam = parse_nature_strategy(corpus_text("biased_coin.nat"), smp_game)
    matrix = build_matrix(smp_game, lam)
    assert matrix.shape == (2, 2)
    assert [[cell(matrix, i, j) for j in range(2)] for i in range(2)] == \
        [[F(1, 3), F(0)], [F(0), F(2, 3)]]
    eq = solve_zero_sum(reduce_matrix(matrix))
    assert eq.value == F(2, 9)
    # the analyzed profile p = q = 2/3 is an equilibrium of the raw matrix
    profile = Equilibrium(F(2, 9), ((0, F(2, 3)), (1, F(1, 3))),
                          ((0, F(2, 3)), (1, F(1, 3))), matrix)
    assert verify_equilibrium(matrix, profile)


def test_classical_status(binary, doors3):
    copycat = parse_formula("forall x exists y (x = y)")
    assert classical_status(binary, copycat).kind == "true"
    mp = parse_formula("forall x (exists y/{x}) x = y")
    status = classical_status(binary, mp)
    assert status.kind == "indeterminate"
    assert status.value == F(1, 2)
    for n in (2, 3, 4, 5):
        m = parse_structure(corpus_text(f"pennies_{n}.struct"))
        status = classical_status(m, mp)
        assert status.kind == "indeterminate" and status.value == F(1, n)


def test_classical_status_rejects_chance(sb_structure, phi_sb):
    from ifgames.errors import GameError
    with pytest.raises(GameError):
        classical_status(sb_structure, phi_sb)


def _sb_mix(game, p):
    heads = reduced_from_rules(
        game, EXIST, lambda info: "L" if info.label == "@/0/0/1[]"
        else ("L" if "t=2,x=1" in info.label else "R"))
    tails = reduced_from_rules(
        game, EXIST, lambda info: "R" if info.label == "@/0/0/1[]"
        else ("L" if "t=2,x=1" in info.label else "R"))
    return MixedStrategy(EXIST, [(heads, p), (tails, 1 - p)])


def test_conditional_sb_family(sb_game):
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    awake = parse_event("Awake(x,t)", sb_game)
    for p in (F(0), F(1, 4), F(1, 2), F(1)):
        mix = _sb_mix(sb_game, p)
        assert mixed_expected_payoff(sb_game, lam, mix, tau) == (3 - p) / 4
        cond = conditional_value(sb_game, lam, mix, tau, awake)
        assert cond.value == (2 - p) / 3
        assert cond.p_event == F(3, 4)
    assert conditional_value(sb_game, lam, _sb_mix(sb_game, F(1)), tau,
                             awake).value == F(1, 3)


def test_conditional_whole_space_is_expected_payoff(sb_game):
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    mix = _sb_mix(sb_game, F(1, 2))
    cond = conditional_value(sb_game, lam, mix, tau, None)
    assert cond.p_event == 1
    assert cond.value == mixed_expected_payoff(sb_game, lam, mix, tau)


def test_conditional_zero_probability_event(sb_game):
    lam = parse_nature_strategy(corpus_text("sb_lambda_prime.nat"), sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    event = parse_event("x = 1 and t = 2", sb_game)
    with pytest.raises(ZeroProbabilityEventError):
        conditional_value(sb_game, lam, _sb_mix(sb_game, F(1)), tau, event)


def test_conditional_coherence(sb_game, sb_prime_game):
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    mix = _sb_mix(sb_game, F(1, 3))
    event = parse_event("Awake(x,t)", sb_game)
    complement = parse_event("not Awake(x,t)", sb_game)
    c1 = conditional_value(sb_game, lam, mix, tau, event)
    c2 = conditional_value(sb_game, lam, mix, tau, complement)
    total = mixed_expected_payoff(sb_game, lam, mix, tau)
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
    from ifgames.formula import has_chance, is_slash_free
    values = {}
    for name, phi in corpus_formulas.items():
        if not name.startswith("classical"):
            continue
        assert is_slash_free(phi) and not has_chance(phi)
        structure = doors3 if "copycat" in name or "lone" in name else sb_structure
        values[name] = truth_value(structure, phi).value
        assert values[name] in (F(0), F(1))
    assert len(values) == 10
    for name, value in values.items():
        assert (value == 1) == ("_true_" in name)


def test_simulate_deterministic_game(fig1_game):
    lam = uniform_nature(fig1_game)
    rows = enumerate_reduced(fig1_game, EXIST)
    cols = enumerate_reduced(fig1_game, UNIV)
    sigma = MixedStrategy.pure(rows[0])
    tau = MixedStrategy.pure(cols[0])
    exact = expected_payoff(fig1_game, lam, rows[0], cols[0])
    report = simulate(fig1_game, lam, sigma, tau, plays=50, seed=9)
    assert report.win_frequency in (F(0), F(1))
    assert report.win_frequency == exact


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


def _scalar_plays(g, lam, row_mix, col_mix, plays, rng):
    """Each play's terminal, one play at a time: the per-play loop that
    ``simulate`` replaced, kept as the reference for its draws."""
    row_dist = _scalar_thresholds(tuple(w for _, w in row_mix.support))
    col_dist = _scalar_thresholds(tuple(w for _, w in col_mix.support))
    chance = {node: _scalar_thresholds(dist) for node, dist in lam.dists.items()}
    owner, children, infoset = g.owner, g.children, g.infoset
    for _ in range(plays):
        sigma = row_mix.support[_scalar_pick(rng.getrandbits(64), row_dist)][0]
        tau = col_mix.support[_scalar_pick(rng.getrandbits(64), col_dist)][0]
        node = g.root
        while owner[node] != TERMINAL:
            if owner[node] == NATURE:
                node = children[node][_scalar_pick(rng.getrandbits(64), chance[node])]
            else:
                strat = sigma if owner[node] == EXIST else tau
                act = strat.action_at(infoset[node])
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
_BLOCK = solver._SAMPLE_BLOCK_STARTS


@pytest.mark.parametrize(
    "entry, check, profile", _CORPUS_PROFILES,
    ids=[f"{_check_id(e, c)}/{p or 'solve'}" for e, c, p in _CORPUS_PROFILES])
def test_simulate_matches_scalar_loop(entry, check, profile):
    game, lam = _load_check(entry, check)
    if profile is None:
        eq = solve(game, lam)
        row_mix, col_mix = eq.row_strategies(), eq.col_strategies()
        # the first variable takes its first value, when there is one
        names = game.variables()
        texts = [f"{names[0]} = {game.structure.universe[0]}"] if names else []
    else:
        row_mix, col_mix = parse_profile(corpus_text(profile), game)
        texts = [q.event for q in check.queries if q.profile == profile]
    events = {text: parse_event(text, game) for text in texts}
    counts = (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 10_007)
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


def test_bulk_draws_equal_single_draws():
    for k in (1, 2, 7, _BLOCK + 5):
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
    ends, used = sampler.walk(np.array(words + [0] * 3, dtype=np.uint64),
                              len(words))
    want = list(_scalar_plays(game, lam, row_mix, col_mix, len(plays),
                              _Words(words)))
    assert ends[::3].tolist() == want
    assert set(used[::3].tolist()) == {3}


def _sb_partial_mix(game):
    """Half the tails strategy, half its restriction to the sets without
    x = 2: undefined on the sets that a play reaches when the coin shows
    tails."""
    tails = _sb_mix(game, F(0)).support[0][0]
    infosets = information_partition(game, EXIST)
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


def test_simulate_undefined_only_on_unused_starts(sb_game):
    # one play reads at most `words_per_play` words, and the sampler walks a
    # start at each of them; the starts after the first are never played
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    mix = _sb_partial_mix(sb_game)
    sampler = solver._Sampler(sb_game, lam, mix, tau)
    unused_only = 0
    for seed in range(1, 41):
        ends, _ = sampler.walk(
            solver._draw_words(random.Random(seed), 2 * sampler.words_per_play),
            sampler.words_per_play)
        stuck = (sampler.owner[ends] != TERMINAL).tolist()
        try:
            want = _scalar_simulate(sb_game, lam, mix, tau, 1, seed)
        except GameError:
            assert stuck[0]
            with pytest.raises(GameError):
                simulate(sb_game, lam, mix, tau, 1, seed)
            continue
        got = simulate(sb_game, lam, mix, tau, 1, seed)
        assert (got.wins, got.event_counts) == (want.wins, want.event_counts)
        unused_only += any(stuck[1:])
    assert unused_only > 0
