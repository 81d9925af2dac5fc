"""Settling the tree by weak dominance, before strategies exist.

``solve`` always settles the tree to a fixpoint (``solver._settled``):
each pass (``solver._forced_winners``) marks the nodes whose winner is
already fixed and drops dominated actions at whole information sets, is
checked (``solver._certify``) and rebuilds the game (``solver._settle``).
The value must equal the unsettled one, which the public stages give when
composed directly on the game as built, and each witness mix, lifted to
the original game, must hold the value there: checked here exactly, by
backward induction where the other player's sets are singletons and over
its strategies of the original game otherwise.
"""

from fractions import Fraction

import numpy as np
import pytest

from ifgames import EXIST, UNIV, BudgetError, GameError, solve
from ifgames import solver
from ifgames.corpus import CORPUS, corpus_text
from ifgames.parser import load_game
from ifgames.strategy import DEFAULT_STRATEGY_BUDGET, enumerate_reduced, play_masses
from random_sentences import seeded_sentence
from reference import follow_matrix, grouped

F = Fraction


def _exact_reply(game, lam, mix) -> Fraction:
    """The verifier's win probability when the other player answers
    ``mix`` best on ``game``, exactly."""
    masses, scale = play_masses(game, lam, mix)
    other = UNIV if mix.player == EXIST else EXIST
    if all(len(info.members) == 1 for info in game.information_partition(other)):
        return Fraction(solver._tree_reply(game, masses, mix.player), scale)
    wins = [t for t in game.terminals() if game.winner_of[t] == EXIST]
    nums = np.array([masses[t] for t in wins], dtype=object)
    table = follow_matrix(enumerate_reduced(game, other), wins)
    scores = table.astype(object) @ nums
    best = min if mix.player == EXIST else max
    return Fraction(int(best(scores)), scale)


def _unsettled(game, lam, budget=DEFAULT_STRATEGY_BUDGET):
    """The equilibrium of ``game`` as built, with no settling, on its
    matrix's follow classes (``reference.grouped``)."""
    return solver.solve_zero_sum(grouped(solver.build_matrix(game, lam, budget)))


def _check_lifted(game, lam, eq):
    for mix in (eq.row_strategies(), eq.col_strategies()):
        assert all(s.game is game for s, _ in mix)
        assert _exact_reply(game, lam, mix) == eq.value


_VALUED = [(entry, check) for entry in CORPUS for check in entry.checks
           if check.expected is not None]
# the one value check whose unsettled falsifier exceeds the strategy budget
_OVER_BUDGET_UNSETTLED = ("phi_mh_prime_chance.if", "doors3.struct")


@pytest.mark.parametrize("entry, check", _VALUED,
                         ids=[f"{e.name}/{c.structure or e.game}" for e, c in _VALUED])
def test_corpus_settled_equals_unsettled(entry, check):
    game, lam = load_game(corpus_text(entry.game or entry.formula),
                          check.structure and corpus_text(check.structure),
                          check.nature and corpus_text(check.nature))
    eq = solve(game, lam)
    assert eq.value == check.expected
    assert eq.matrix.log[0].startswith(f"tree: {len(game)} -> ")
    assert eq.matrix.log[-1].startswith("witness checked: I on ")
    _check_lifted(game, lam, eq)
    if (entry.formula, check.structure) == _OVER_BUDGET_UNSETTLED:
        with pytest.raises(BudgetError):
            _unsettled(game, lam)
    else:
        assert _unsettled(game, lam).value == eq.value


# the seeds below 400 whose settled verifier still has strategies that
# follow the same win terminals: I's strategies and its follow classes;
# no settled falsifier has such strategies
_EQUAL_ROWS_AFTER_SETTLING = {54: (4, 3), 74: (6, 4), 99: (6, 5),
                              118: (4, 3), 123: (4, 3), 397: (8, 7)}


def test_random_sentences_settled_equals_unsettled():
    """Seeds 0-399 at a budget of 10**4: every settled game solves, its
    value is the unsettled one wherever that fits the budget, and its
    lifted witnesses hold on the original game."""
    over_budget = widest = 0
    equal_rows = []
    for seed in range(400):
        game, lam = load_game(*seeded_sentence(seed))
        eq = solve(game, lam, budget=10**4)
        widest = max(widest, *eq.matrix.shape)
        if grouped(eq.matrix).shape != eq.matrix.shape:
            equal_rows.append(seed)
        _check_lifted(game, lam, eq)
        try:
            unsettled = _unsettled(game, lam, 10**4)
        except BudgetError:
            over_budget += 1
            continue
        assert unsettled.value == eq.value, seed
    assert over_budget == 11
    assert widest == 27  # strategies on one side of a settled matrix
    assert equal_rows == list(_EQUAL_ROWS_AFTER_SETTLING)


def _force_first_open_verifier_node(monkeypatch):
    """Patch each pass to force the first verifier node it leaves open, if
    any, to the verifier, a fault no matrix certificate of the small game
    can see."""
    honest = solver._forced_winners

    def faulty(g, lam):
        forced, drops = honest(g, lam)
        node = next((n for n in range(len(g))
                     if g.owner[n] == EXIST and forced[n] is None), None)
        if node is not None:
            forced[node] = EXIST
        return forced, drops

    monkeypatch.setattr(solver, "_forced_winners", faulty)
    return faulty


@pytest.mark.parametrize("name, faulty_value",
                         [("phi_mh.if", F(1)), ("phi_mh_prime.if", F(1, 2))])
def test_faulty_settling_fails_the_tree_check(monkeypatch, name, faulty_value):
    game, lam = load_game(corpus_text(name), corpus_text("doors3.struct"))
    faulty = _force_first_open_verifier_node(monkeypatch)
    forced, drops = faulty(game, lam)
    small, small_lam = solver._settle(game, lam, forced, drops)
    # the small game's own certificate passes on every strategy
    matrix = solver.build_matrix(small, small_lam)
    eq = solver.solve_zero_sum(matrix)
    assert eq.value == faulty_value
    assert solver.verify_equilibrium(matrix, eq)
    with pytest.raises(GameError, match="won by I without forcing it"):
        solve(game, lam)
    # without the pass's certificate, the tree check still sees the fault
    monkeypatch.setattr(solver, "_certify", lambda *args: None)
    with pytest.raises(GameError, match="the witness of I fails on the game tree"):
        solve(game, lam)


@pytest.mark.parametrize("name", ["phi_mh.if", "phi_mh_prime.if"])
def test_settling_fault_forced_to_the_falsifier_fails(monkeypatch, name):
    """Each of the 42 verifier nodes that the first pass leaves open,
    marked as forced to II instead, fails that pass's certificate; without
    it, 15 of these faults print a wrong value on either sentence."""
    game, lam = load_game(corpus_text(name), corpus_text("doors3.struct"))
    honest = solver._forced_winners
    forced = honest(game, lam)[0]
    open_nodes = [n for n in range(len(game))
                  if game.owner[n] == EXIST and forced[n] is None]
    assert len(open_nodes) == 42
    for node in open_nodes:
        def faulty(g, lam, node=node):
            forced, drops = honest(g, lam)
            if g is game:
                forced[node] = UNIV
            return forced, drops

        monkeypatch.setattr(solver, "_forced_winners", faulty)
        with pytest.raises(GameError, match=f"settling marked node {node} "
                                            "won by II without forcing it"):
            solve(game, lam)


def test_undominated_drop_fails(monkeypatch):
    """II's first choice in phi_mh is open under each of its actions, so
    no action of it dominates another."""
    game, lam = load_game(corpus_text("phi_mh.if"), corpus_text("doors3.struct"))
    honest = solver._forced_winners

    def faulty(g, lam):
        forced, drops = honest(g, lam)
        assert (UNIV, 0) not in drops
        drops[UNIV, 0] = {1: 0}
        return forced, drops

    monkeypatch.setattr(solver, "_forced_winners", faulty)
    with pytest.raises(GameError, match=r"dropped action 1 at @/\[\] undominated"):
        solve(game, lam)


# II drops its move a, under which I wins either way, and with it X's
# first member; Y's first member then comes before X's other member, which
# Y's second member follows
_REORDERING_GAME = """\
player=II info=r
  action=a player=I info=X
    action=1 win=I
    action=2 win=I
  action=b player=I info=Y
    action=1 win=I
    action=2 win=II
  action=c player=I info=X
    action=1 player=I info=Y
      action=1 win=II
      action=2 win=I
    action=2 win=II
"""


def _kept_nodes(game, forced, drops):
    """Reference for the nodes a settling pass keeps, in node order: the
    root, and each node whose parent is kept and not forced and whose edge
    is not dropped at the parent's set."""
    kept = [False] * len(game)
    for node in range(len(game)):
        at = game.parent[node]
        kept[node] = at < 0 or (
            kept[at] and forced[at] is None and game.children[at].index(node)
            not in drops.get((game.owner[at], game.infoset[at]), ()))
    return [node for node in range(len(game)) if kept[node]]


def _check_settled_sets(game, lam):
    """Settle ``game`` pass by pass to the fixpoint.  After each pass, the
    small game's nodes are the kept ones (``_kept_nodes``), with the same
    moves, and each player's sets are the last game's restricted to the
    nodes kept open: the same members, labels and order, and the same
    actions less those dropped at the set."""
    while True:
        forced, drops = solver._forced_winners(game, lam)
        small, small_lam = solver._settle(game, lam, forced, drops)
        origin = _kept_nodes(game, forced, drops)
        assert small.move == [game.move[n] for n in origin]
        kept = {origin[n] for n in small.nonterminals()}

        def sets(g, player, members_of, actions_of):
            out = []
            for info in g.information_partition(player):
                members = members_of(info.members)
                if members:
                    out.append((info.label, members, actions_of(info)))
            return out

        for player in (EXIST, UNIV):
            assert sets(small, player, lambda ms: tuple(origin[m] for m in ms),
                        lambda info: info.actions) == sets(
                game, player, lambda ms: tuple(m for m in ms if m in kept),
                lambda info: tuple(a for k, a in enumerate(info.actions)
                                   if k not in drops.get((player, info.index), ())))
        if len(small) == len(game):
            return small
        game, lam = small, small_lam


_CORPUS_GAMES = sorted({(e.game or e.formula, c.structure, c.nature)
                        for e in CORPUS for c in e.checks}, key=str)


def test_settling_keeps_the_order_of_information_sets():
    game, lam = load_game(_REORDERING_GAME, None)
    small = _check_settled_sets(game, lam)
    assert len(small) == len(game) - 4
    labels = [info.label for info in small.information_partition(EXIST)]
    assert labels == [info.label for info in game.information_partition(EXIST)]
    for source, structure, nature in _CORPUS_GAMES:
        _check_settled_sets(*load_game(corpus_text(source),
                                       structure and corpus_text(structure),
                                       nature and corpus_text(nature)))
    for seed in range(100):
        _check_settled_sets(*load_game(*seeded_sentence(seed)))
    eq = solve(game, lam)
    assert eq.value == _unsettled(game, lam).value
    _check_lifted(game, lam, eq)


# closed forms on n doors, derived by hand: the verifier of phi_mh picks y
# uniformly and switches to a uniform door outside {y, z}; that of
# phi_mh_chance wins outright when z is x or y, and then 1/n**2 for each
# door z != y
_MONTY_HALL_ON_N_DOORS = {
    "phi_mh.if": lambda n: F(n - 1, n * (n - 2)),
    "phi_mh_prime.if": lambda n: F(1, n),
    "phi_mh_chance.if": lambda n: F(3 * n - 2, n * n),
    "phi_mh_prime_chance.if": lambda n: F(1, n),
}
# phi_mh on five doors is left out: it takes about 35 s; the other three
# sentences settle to small games on six doors too
_FAMILY = [(n, name) for n in (4, 5, 6) for name in _MONTY_HALL_ON_N_DOORS
           if n == 4 or name != "phi_mh.if"]


@pytest.mark.parametrize("n, name", _FAMILY, ids=[f"{name}-{n}" for n, name in _FAMILY])
def test_monty_hall_on_n_doors(n, name):
    universe = "universe " + " ".join(str(d) for d in range(1, n + 1))
    game, lam = load_game(corpus_text(name), universe)
    assert solve(game, lam).value == _MONTY_HALL_ON_N_DOORS[name](n)


# on three doors: the nodes of the tree as built and as settled, and the
# strategies (I x II) of the settled matrix
_SETTLED_ON_THREE_DOORS = [
    ("phi_mh.if", 229, 61, (12, 6)),
    ("phi_mh_prime.if", 283, 13, (3, 3)),
    ("phi_mh_chance.if", 229, 76, (12, 1)),
    ("phi_mh_prime_chance.if", 283, 88, (12, 1)),
]


@pytest.mark.parametrize("name, nodes, settled, strategies", _SETTLED_ON_THREE_DOORS,
                         ids=[row[0] for row in _SETTLED_ON_THREE_DOORS])
def test_settled_sizes_on_three_doors(name, nodes, settled, strategies):
    game, lam = load_game(corpus_text(name), corpus_text("doors3.struct"))
    eq = solve(game, lam)
    assert eq.matrix.log[0] == f"tree: {nodes} -> {settled} nodes"
    assert eq.matrix.shape == strategies


def _mix_lines(mix):
    return [(s.lines(), w) for s, w in mix]


@pytest.mark.parametrize("seed", list(_EQUAL_ROWS_AFTER_SETTLING))
def test_settled_equal_rows_solve_like_their_classes(seed):
    """The matrix keeps every strategy where follow rows repeat, and
    ``solve`` gives the value and the lifted witness of the grouped
    matrix."""
    game, lam = load_game(*seeded_sentence(seed))
    small, small_lam, fallback = solver._settled(game, lam)
    matrix = solver.build_matrix(small, small_lam, 10**4)
    classes = grouped(matrix)
    strategies, rows = _EQUAL_ROWS_AFTER_SETTLING[seed]
    assert matrix.shape[0] == strategies
    assert classes.shape == (rows, matrix.shape[1])
    assert np.array_equal(matrix.rows.table, enumerate_reduced(small, EXIST).table)
    eq, want = solve(game, lam, budget=10**4), solver.solve_zero_sum(classes)
    assert eq.value == want.value
    for got, mix in zip(eq.lifted, (want.row_strategies(), want.col_strategies())):
        assert _mix_lines(got) == _mix_lines(
            solver._lift(game, small, fallback, mix))
