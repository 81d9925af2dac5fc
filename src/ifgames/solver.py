"""Exact zero-sum solving: payoff matrices, LP, conditioning, simulation.

Every value-path computation is exact.  A payoff matrix is held as the
win-terminal follow tables of both players' reduced strategies, one row
per strategy of each side's enumeration
(:func:`~ifgames.strategy.enumerate_reduced`), and the terminals' integer
chance weights over one common denominator; a cell is the weighted count
of the terminals both strategies follow, computed only for the cells a
restricted LP needs.  The chance weights, the tree certificate and
conditioning all read one integer pass,
:func:`~ifgames.strategy.play_masses`.  :func:`solve` always first
settles the tree to a fixpoint by weak dominance, certifying each pass:
nodes whose winner is already fixed, and actions dominated at a whole
information set.  The LP is one column-generation (double-oracle)
loop: its restricted problems run a fraction-free integer simplex (Bareiss
pivoting, Bland's rule) and its best-response pricing is exact integer
arithmetic over every strategy, straight from the follow tables.  Within
``DEFAULT_SIMPLEX_CAP`` cells the loop starts from the whole matrix, so its
first restricted LP is the game's LP; a larger matrix starts from one row
and one column and grows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetError, GameError, ZeroProbabilityEventError
from .formula import Formula
from .game import (
    DEFAULT_NODE_CAP,
    EXIST,
    NATURE,
    PLAYER_NAMES,
    TERMINAL,
    UNIV,
    ExtensiveGame,
    build_semantic_game,
)
from .structure import Structure
from .strategy import (
    DEFAULT_CELL_BUDGET,
    DEFAULT_STRATEGY_BUDGET,
    BehavioralStrategy,
    MixedStrategy,
    ReducedStrategy,
    StrategyList,
    enumerate_reduced,
    own_histories,
    play_masses,
    uniform_nature,
)

if TYPE_CHECKING:
    from .parser import EventPredicate

DEFAULT_SIMPLEX_CAP = 4_000  # matrix cells


# ----------------------------------------------------------- payoff matrix

class PayoffMatrix:
    """Expected payoffs for the maximizer over reduced strategies, held
    as follow tables.

    ``rows`` (``cols``) lists one strategy per row (column); ``f_row``
    (``f_col``) is the boolean (strategies x win terminals) table of the
    terminals each strategy follows, and ``weights`` the terminals' chance
    masses times ``den``, as int64, or as Python integers when ``den``
    exceeds 64-bit integers.  Cell (i, j) is
    ``sum_t weights[t] * f_row[i, t] * f_col[j, t] / den``; :meth:`cells`
    computes those of a restricted set.
    """

    def __init__(self, rows: StrategyList, cols: StrategyList,
                 f_row: np.ndarray, f_col: np.ndarray, weights: np.ndarray,
                 den: int):
        self.rows = rows
        self.cols = cols
        self.f_row = f_row
        self.f_col = f_col
        self.weights = weights
        self.den = den
        self.log: list[str] = []

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.f_row), len(self.f_col)

    def cells(self, rset, cset) -> np.ndarray:
        """The integer numerators of the cells in rows ``rset`` and columns
        ``cset``.  The terms of a cell are non-negative and sum to at most
        ``den``, so no partial sum overflows."""
        return (self.f_row[rset] * self.weights) @ self.f_col[cset].T


def build_matrix(g: ExtensiveGame, lam: BehavioralStrategy,
                 budget: int = DEFAULT_STRATEGY_BUDGET) -> PayoffMatrix:
    """Payoff matrix over both players' reduced strategies.

    A cell sums the chance masses of the verifier-win terminals that both
    strategies follow.  Each side is enumerated
    (:func:`~ifgames.strategy.enumerate_reduced`), one row (column) per
    strategy in enumeration order, and its follow table taken; no cell is
    computed here.  Raises :class:`BudgetError` when the strategies would
    give more than ``DEFAULT_CELL_BUDGET`` payoff cells, or follow cells on
    one side, before any follow table is taken.  The weights are int64
    when the common denominator fits 64-bit integers, and Python integers
    otherwise.
    """
    win_nodes = [t for t in g.terminals() if g.winner_of[t] == EXIST]
    rows = enumerate_reduced(g, EXIST, budget)
    cols = enumerate_reduced(g, UNIV, budget)
    cells = len(rows) * len(cols)
    if cells > DEFAULT_CELL_BUDGET:
        raise BudgetError("payoff cell", DEFAULT_CELL_BUDGET, cells)
    for strats in (rows, cols):
        cells = len(strats) * len(win_nodes)
        if cells > DEFAULT_CELL_BUDGET:
            raise BudgetError("follow cell", DEFAULT_CELL_BUDGET, cells)
    masses, scale = play_masses(g, lam)
    masses = [masses[t] for t in win_nodes]
    common = math.gcd(scale, *masses)
    den = scale // common
    dtype = np.int64 if den <= np.iinfo(np.int64).max else object
    weights = np.array([m // common for m in masses], dtype=dtype)
    return PayoffMatrix(rows, cols, _follow_table(rows, win_nodes),
                        _follow_table(cols, win_nodes), weights, den)


def _follow_table(strats: StrategyList, nodes: list[int]) -> np.ndarray:
    """The boolean (strategies x nodes) table of the histories among
    ``nodes`` that each of ``strats`` follows."""
    own = own_histories(strats.game, strats.player)
    columns = np.ascontiguousarray(strats.table.T)
    follow = np.ones((len(nodes), len(strats)), dtype=bool)
    for row, node in zip(follow, nodes):
        for ci, ai in own[node]:
            row &= columns[ci] == ai
    return follow.T


# ------------------------------------------------------------------ the LP

@dataclass
class Equilibrium:
    """Exact value plus one optimal mixed strategy per side.

    Mixes are supports over the matrix's rows and columns; the helpers
    read them as the matrix's strategies, or return ``lifted``, the mixes of the game that :func:`solve` was given, lifted
    from the settled copy it solved.
    """

    value: Fraction
    row_mix: tuple[tuple[int, Fraction], ...]
    col_mix: tuple[tuple[int, Fraction], ...]
    matrix: PayoffMatrix = field(repr=False)
    lifted: tuple[MixedStrategy, MixedStrategy] | None = field(default=None,
                                                                repr=False)

    def row_strategies(self) -> MixedStrategy:
        if self.lifted:
            return self.lifted[0]
        return MixedStrategy(EXIST, [(self.matrix.rows[i], w)
                                     for i, w in self.row_mix])

    def col_strategies(self) -> MixedStrategy:
        if self.lifted:
            return self.lifted[1]
        return MixedStrategy(UNIV, [(self.matrix.cols[j], w)
                                    for j, w in self.col_mix])


def _simplex_max(a: list[list[int]], s: int):
    """max 1'y  s.t.  a y <= s, y >= 0  (integers; all entries of ``a`` and
    ``s`` positive).

    Fraction-free tableau simplex (Bareiss pivoting), Bland's rule on
    entering and leaving choices.  The tableau holds integers and the real
    tableau is ``tableau / d``: each pivot on ``p`` updates every other row
    to ``(row * p - row[enter] * pivot_row) // d``, an exact division, and
    sets ``d = p > 0``.  Its choices are those of a rational tableau for
    ``(a / s) y <= 1``.  Returns (value, y, duals) of that problem.
    """
    n_rows = len(a)
    n_cols = len(a[0])
    width = n_cols + n_rows + 1
    tableau = []
    for i in range(n_rows):
        row = list(a[i]) + [0] * n_rows + [s]
        row[n_cols + i] = 1
        tableau.append(row)
    obj = [-1] * n_cols + [0] * (n_rows + 1)
    basis = list(range(n_cols, n_cols + n_rows))
    d = 1
    while True:
        enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(n_rows):
            coef = tableau[i][enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio rhs / coef, compared without dividing
                lhs = tableau[i][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise GameError("unbounded game LP; matrix entries out of range")
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for i in range(n_rows):
            if i != leave:
                tableau[i] = _eliminate(tableau[i], pivot_row, enter, p, d)
        obj = _eliminate(obj, pivot_row, enter, p, d)
        d = p
        basis[leave] = enter
    y = [Fraction(0)] * n_cols
    for i, b in enumerate(basis):
        if b < n_cols:
            y[b] = Fraction(tableau[i][-1], d)
    # a slack column of the integer tableau is that of (a / s) y <= 1 over s
    duals = [Fraction(s * obj[n_cols + i], d) for i in range(n_rows)]
    return Fraction(obj[-1], d), y, duals


def _eliminate(row: list[int], pivot_row: list[int], enter: int,
               p: int, d: int) -> list[int]:
    """One Bareiss row update; every division is exact."""
    f = row[enter]
    if f == 0:  # the row only rescales, and not at all when p == d
        return row if p == d else [x * p // d for x in row]
    return [(x * p - f * y) // d for x, y in zip(row, pivot_row)]


def _solve_int_matrix(num: list[list[int]], den: int):
    """Exact value and mixes of the zero-sum matrix ``num / den`` (rows
    maximize, every cell in [0, 1])."""
    shifted = [[c + den for c in row] for row in num]
    total, y, duals = _simplex_max(shifted, den)
    if total <= 0:
        raise GameError("game LP optimum is not positive")
    value = 1 / total - 1
    col_mix = [(j, w / total) for j, w in enumerate(y) if w != 0]
    if sum(duals, Fraction(0)) != total:
        raise GameError("strong duality failed in the game LP")
    row_mix = [(i, w / total) for i, w in enumerate(duals) if w != 0]
    return value, tuple(row_mix), tuple(col_mix)


def _exact_mix_scores(mine: np.ndarray, other: np.ndarray,
                      weights: np.ndarray, den: int, mix):
    """Exact expected payoffs of a mix over the strategies of the follow
    table ``mine`` against every strategy of the other side's table
    ``other``; returns (integer vector, scale) with score = vec/scale.

    With ``x`` the mix's masses times ``q``, their common denominator, the
    vector is ``other @ (weights * (x @ mine))``: per terminal, the mass of
    the mix that follows it, weighed by its chance.  Every term is
    non-negative and a score is at most ``den * q``, so the vector is int64
    when ``den * q <= 2**62`` and Python integers otherwise."""
    q = math.lcm(*(w.denominator for _, w in mix))
    dtype = np.int64 if den * q <= 2**62 else object
    x = np.array([int(w * q) for _, w in mix], dtype=dtype)
    followed = x @ mine[[idx for idx, _ in mix]]
    return other @ (weights.astype(dtype) * followed), den * q


def solve_zero_sum(m: PayoffMatrix) -> Equilibrium:
    """Exact equilibrium of the matrix game (rows maximize).

    A column-generation (double-oracle) loop: solve the restricted matrix
    on the integer tableau, add each side's exact best response over every
    strategy that beats the restricted value, and stop when neither does.
    A matrix of at most ``DEFAULT_SIMPLEX_CAP`` cells starts with every row
    and column, so its first restricted LP is the whole matrix; a larger
    one starts from its first row and column.  A best response is the
    first strategy of the extreme score, the one a merge of equal rows
    (columns) would keep.  The result always passes
    :func:`verify_equilibrium`; a failure raises :class:`GameError`.
    """
    n_rows, n_cols = m.shape
    if n_rows == 0 or n_cols == 0:
        raise GameError("empty payoff matrix")
    whole = n_rows * n_cols <= DEFAULT_SIMPLEX_CAP
    rset = list(range(n_rows)) if whole else [0]
    cset = list(range(n_cols)) if whole else [0]
    while True:
        sub = m.cells(rset, cset).tolist()
        value, row_local, col_local = _solve_int_matrix(sub, m.den)
        row_mix = tuple((rset[i], w) for i, w in row_local)
        col_mix = tuple((cset[j], w) for j, w in col_local)
        improved = False
        # best column response (minimizer) against the current row mix
        scores, scale = _exact_mix_scores(m.f_row, m.f_col, m.weights, m.den,
                                          row_mix)
        j_best = int(np.argmin(scores))
        if Fraction(int(scores[j_best]), scale) < value:
            if j_best in cset:
                raise GameError("column generation repeated a column")
            cset.append(j_best)
            improved = True
        # best row response (maximizer) against the current column mix
        scores, scale = _exact_mix_scores(m.f_col, m.f_row, m.weights, m.den,
                                          col_mix)
        i_best = int(np.argmax(scores))
        if Fraction(int(scores[i_best]), scale) > value:
            if i_best in rset:
                raise GameError("column generation repeated a row")
            rset.append(i_best)
            improved = True
        if not improved:
            break
    eq = Equilibrium(value, row_mix, col_mix, m)
    if not verify_equilibrium(m, eq):
        raise GameError("solver produced a non-equilibrium")
    return eq


def verify_equilibrium(m: PayoffMatrix, eq: Equilibrium) -> bool:
    """Exact maximin check over every strategy: the row mix guarantees at
    least the value against every column and the column mix at most the
    value against every row."""
    if not eq.row_mix or not eq.col_mix:
        return False
    if any(w < 0 for _, w in eq.row_mix) or any(w < 0 for _, w in eq.col_mix):
        return False
    if (sum(w for _, w in eq.row_mix) != 1
            or sum(w for _, w in eq.col_mix) != 1):
        return False
    scores, scale = _exact_mix_scores(m.f_row, m.f_col, m.weights, m.den,
                                      eq.row_mix)
    if Fraction(int(scores.min()), scale) != eq.value:
        return False
    scores, scale = _exact_mix_scores(m.f_col, m.f_row, m.weights, m.den,
                                      eq.col_mix)
    return Fraction(int(scores.max()), scale) == eq.value


# ----------------------------------------------------------- truth values

def _forced_winners(g: ExtensiveGame, lam: BehavioralStrategy):
    """One settling pass over ``g``: ``(forced, drops)``.

    ``forced`` gives per node the player who wins there whatever the other
    does, or None, from one backward pass: a terminal is forced to its
    winner; a chance node to the winner that all its children of positive
    mass are forced to; the only member of a player's set to that player
    when some child is forced to it (choosing the first such child is
    weakly dominant); any player's node to the winner all its children
    share.

    ``drops`` maps ``(player, set index)`` to the actions dropped at that
    set, each to a kept action that weakly dominates it at every open
    (unmarked) member: there the dropped action's child is forced to the
    owner's loss, or the dominating action's child to the owner's win.  Of
    actions that dominate each other the first is kept.  The drops are
    decided once the whole pass is marked, since a set's members lie in
    different subtrees; at a set of one member they are the children
    forced to its owner's loss.
    """
    sets = {p: g.information_partition(p) for p in (EXIST, UNIV)}
    infoset, children = g.infoset, g.children
    forced: list[int | None] = [None] * len(g)
    candidates = set()  # the sets with an open member that has a forced child
    for node in reversed(range(len(g))):  # children come after their parents
        owner = g.owner[node]
        if owner == TERMINAL:
            forced[node] = g.winner_of[node]
            continue
        kids = [forced[c] for c in children[node]]
        if owner == NATURE:
            kids = [w for w, p in zip(kids, lam.distribution(node)) if p]
        elif owner in kids and len(sets[owner][infoset[node]].members) == 1:
            forced[node] = owner
            continue
        if kids.count(kids[0]) == len(kids):
            forced[node] = kids[0]
        elif owner != NATURE and kids.count(None) < len(kids):
            candidates.add((owner, infoset[node]))
    drops: dict[tuple[int, int], dict[int, int]] = {}
    for owner, index in candidates:
        members = [m for m in sets[owner][index].members if forced[m] is None]
        acts = range(len(children[members[0]]))
        # per action, a bit per open member where the owner loses (wins) its
        # child; b dominates a where b wins at every member a is not lost at
        lost, won = [0] * len(acts), [0] * len(acts)
        for bit, m in enumerate(members):
            for a, c in enumerate(children[m]):
                if forced[c] is not None:
                    (won if forced[c] == owner else lost)[a] |= 1 << bit
        need = [~x & ((1 << len(members)) - 1) for x in lost]
        kept, dropped = [], []
        for a in acts:
            for b in acts:
                if (b != a and not need[a] & ~won[b]
                        and (b < a or need[b] & ~won[a])):
                    dropped.append(a)
                    break
            else:
                kept.append(a)
        if dropped:
            drops[owner, index] = {
                a: next(b for b in kept if not need[a] & ~won[b])
                for a in dropped}
    return forced, drops


def _certify(g: ExtensiveGame, lam: BehavioralStrategy,
             forced: list[int | None],
             drops: dict[tuple[int, int], dict[int, int]]):
    """Check a settling pass over ``g`` (:func:`_forced_winners`) without
    trusting it; raise :class:`GameError` where it fails.

    Every terminal must be marked with its winner, and every other mark
    must be its children's: at a chance node, every child's of positive
    mass; at a player's node marked for its owner and alone in its set,
    some child's; at any other player's node, every child's.  So, by
    induction from the terminals, every play from a marked node ends in
    its marked winner when the owner of each such lone node takes its
    first child so marked, whatever the other player and chance do.  Each
    drop is then checked at every open member of its set against those
    marks, with a dominating action that is kept.
    """
    sets = {p: g.information_partition(p) for p in (EXIST, UNIV)}
    infoset, children = g.infoset, g.children
    for node in reversed(range(len(g))):
        won, owner, kids = forced[node], g.owner[node], children[node]
        if owner == TERMINAL:
            ok = won == g.winner_of[node]
        elif won is None:
            continue
        elif owner == NATURE:
            ok = all(forced[c] == won
                     for c, p in zip(kids, lam.distribution(node)) if p)
        elif won == owner and len(sets[owner][infoset[node]].members) == 1:
            ok = any(forced[c] == won for c in kids)
        else:
            ok = all(forced[c] == won for c in kids)
        if not ok:
            raise GameError(f"settling marked node {node} won by "
                            f"{PLAYER_NAMES.get(won)} without forcing it")
    for (owner, index), dropped in drops.items():
        info, other = sets[owner][index], UNIV if owner == EXIST else EXIST
        for a, b in dropped.items():
            if b == a or b in dropped or not all(
                    forced[children[m][a]] == other
                    or forced[children[m][b]] == owner
                    for m in info.members if forced[m] is None):
                raise GameError(f"settling dropped action {a} at "
                                f"{info.label} undominated")


def _settle(game: ExtensiveGame, lam: BehavioralStrategy,
            forced: list[int | None],
            drops: dict[tuple[int, int], dict[int, int]]):
    """The game rebuilt by one forward pass over a settling pass's marks
    and drops (:func:`_forced_winners`): a forced node becomes a terminal,
    and each open member of a set loses the children of the actions
    dropped there.  Returns the small game and its chance strategy.

    Each kept node copies its move, and each kept player's node its set's
    label, with that set's index in ``game`` as its order key, so the
    small game's information sets are ``game``'s, less the members that
    are gone, in the same order; a set's open members drop the same
    actions, so they still share their actions.  It keeps ``game``'s node
    cap, which it cannot pass.
    """
    small = ExtensiveGame(game.structure, game.node_cap)
    infoset = game.infoset
    sets = {p: game.information_partition(p) for p in (EXIST, UNIV)}
    cut = {game.children[m][a] for (owner, index), dropped in drops.items()
           for m in sets[owner][index].members for a in dropped}
    new = {-1: -1}
    dists = {}
    for node in range(len(game)):
        at = game.parent[node]
        if at not in new or node in cut or at >= 0 and forced[at] is not None:
            continue
        owner = TERMINAL if forced[node] is not None else game.owner[node]
        label = sets[owner][infoset[node]].label if owner in sets else None
        new[node] = small.add_node(new[at], game.move[node], owner,
                                   game.binds[node], game.occ[node],
                                   game.info_label[node], forced[node],
                                   label, infoset[node])
        if owner == NATURE:
            dists[new[node]] = lam.distribution(node)
    return small, BehavioralStrategy(small, dists)


def _lift(game: ExtensiveGame, small: ExtensiveGame, fallback: dict,
          mix: MixedStrategy) -> MixedStrategy:
    """A mix of ``small``, ``game`` settled by :func:`_settled`, as a mix
    of ``game``: at each set that a strategy's own choices reach, the move
    it takes at the set of ``small`` with the same label, else
    ``fallback``'s move for ``(player, label)``.  Moves are distinct among
    a node's children, so a move names one child."""
    player = mix.player
    sets = game.information_partition(player)
    settled = small.information_partition(player)

    def lift(sigma: ReducedStrategy) -> ReducedStrategy:
        moves = {settled[k].label: settled[k].actions[a]
                 for k, a in sigma.actions}
        actions = {}
        stack = [game.root]
        while stack:  # the nodes the strategy's own choices reach
            node = stack.pop()
            kids = game.children[node]
            if game.owner[node] != player:
                stack += kids
                continue
            k = game.infoset[node]
            if k not in actions:
                info = sets[k]
                move = moves.get(info.label, fallback[player, info.label])
                actions[k] = info.actions.index(move)
            stack.append(kids[actions[k]])
        return ReducedStrategy(game, player, actions)

    return MixedStrategy(player, [(lift(s), w) for s, w in mix])


def _tree_reply(g: ExtensiveGame, masses: list[int], player: int) -> int:
    """The verifier's win mass when the other player answers ``player``'s
    mix best, by backward induction on ``g``'s tree over the integer
    masses of :func:`~ifgames.strategy.play_masses` of that mix; exact when
    each of the other player's information sets is a singleton.

    That player takes its best child, and a chance node or a node of
    ``player`` sums its children; a verifier-win terminal holds its mass.
    """
    best = min if player == EXIST else max
    value = [0] * len(g)
    for node in reversed(range(len(g))):
        kids = g.children[node]
        if not kids:
            if g.winner_of[node] == EXIST:
                value[node] = masses[node]
        elif g.owner[node] not in (player, NATURE):
            value[node] = best(value[c] for c in kids)
        else:
            value[node] = sum(value[c] for c in kids)
    return value[0]


def _settled(game: ExtensiveGame, lam: BehavioralStrategy):
    """``game`` settled to a fixpoint: ``(small, small_lam, fallback)``.

    Each pass (:func:`_forced_winners`) marks the nodes whose winner is
    already fixed and drops the actions that another dominates at a whole
    information set; :func:`_certify` checks it before :func:`_settle`
    rebuilds the game for the next pass, and the first pass that marks no
    new node and drops nothing ends the loop without a rebuild.

    ``fallback`` maps each ``(player, set label)`` of any pass's game to
    :func:`_lift`'s move where the settled strategy takes none, from the
    last pass that has the set: at a lone set marked for its owner, its
    first child so marked, else the set's first action.
    """
    g, g_lam, fallback = game, lam, {}
    while True:
        forced, drops = _forced_winners(g, g_lam)
        _certify(g, g_lam, forced, drops)
        for player in (EXIST, UNIV):
            for info in g.information_partition(player):
                m = info.members[0]
                first = g.children[m][0]
                if len(info.members) == 1 and forced[m] == player:
                    first = next(c for c in g.children[m] if forced[c] == player)
                fallback[player, info.label] = g.move[first]
        if not drops and forced.count(None) + g.owner.count(TERMINAL) == len(g):
            return g, g_lam, fallback
        g, g_lam = _settle(g, g_lam, forced, drops)


def solve(game: ExtensiveGame, lam: BehavioralStrategy,
          budget: int = DEFAULT_STRATEGY_BUDGET) -> Equilibrium:
    """Equilibrium of a game: settle the tree, build the payoff matrix,
    solve it, lift the witness and check it on the tree.

    :func:`_settled` first removes weakly dominated play, pass by pass,
    which keeps a zero-sum game's value, and the matrix is built on the
    game it ends with.  The witness mixes refer to that matrix's strategies
    (``eq.matrix``), and :func:`solve_zero_sum` has already checked them
    exactly against every strategy.  Each mix, lifted to ``game`` by set
    label and move (:func:`_lift`, ``eq.row_strategies()``,
    ``eq.col_strategies()``), must also guarantee the value on ``game``'s
    tree (:func:`_tree_reply`) wherever the other player's information
    sets are all singletons, or :class:`GameError` is raised; the log's
    last line names the check each side passed.
    """
    small, small_lam, fallback = _settled(game, lam)
    matrix = build_matrix(small, small_lam, budget)
    matrix.log.append(f"tree: {len(game)} -> {len(small)} nodes")
    eq = solve_zero_sum(matrix)
    eq.lifted = tuple(_lift(game, small, fallback, mix)
                      for mix in (eq.row_strategies(), eq.col_strategies()))
    checks = []
    for side, mix, other in zip(("I", "II"), eq.lifted, (UNIV, EXIST)):
        if any(len(info.members) > 1
               for info in game.information_partition(other)):
            checks.append(f"{side} on the class matrix")
            continue
        masses, scale = play_masses(game, lam, mix)
        if _tree_reply(game, masses, mix.player) != eq.value * scale:
            raise GameError(f"the witness of {side} fails on the game tree")
        checks.append(f"{side} on the game tree")
    eq.matrix.log.append("witness checked: " + ", ".join(checks))
    return eq


def truth_value(m: Structure, phi: Formula, lam: BehavioralStrategy | None = None,
                *, node_cap: int = DEFAULT_NODE_CAP,
                budget: int = DEFAULT_STRATEGY_BUDGET) -> Equilibrium:
    """Equilibrium value of the semantic game (the sentence's truth value)."""
    game = build_semantic_game(m, phi, node_cap)
    if lam is None:
        lam = uniform_nature(game)
    return solve(game, lam, budget)


# ----------------------------------------------------------- conditioning

@dataclass(frozen=True)
class ConditionalValue:
    p_event: Fraction
    p_win_and_event: Fraction
    value: Fraction


def conditional_value(g: ExtensiveGame, lam: BehavioralStrategy,
                      row_mix: MixedStrategy, col_mix: MixedStrategy,
                      event: EventPredicate | None) -> ConditionalValue:
    """P(maximizer wins | event) under a fixed profile, exactly.

    ``event=None`` conditions on the whole space, giving the unconditional
    expected payoff.  A zero-probability event is an error.
    """
    masses, scale = play_masses(g, lam, row_mix, col_mix)
    p_event = p_win = 0
    for node in g.terminals():
        if not masses[node] or (event is not None and not event.holds(g, node)):
            continue
        p_event += masses[node]
        if g.winner_of[node] == EXIST:
            p_win += masses[node]
    if p_event == 0:
        raise ZeroProbabilityEventError(
            f"event {event.text if event else 'true'} has probability zero "
            f"under this profile"
        )
    return ConditionalValue(Fraction(p_event, scale), Fraction(p_win, scale),
                            Fraction(p_win, p_event))


# ------------------------------------------------------------- simulation

_SAMPLE_BLOCK_WORDS = 1 << 14  # draws that simulate walks at once
_NEVER = 2**64 - 1  # a bound that no 64-bit draw exceeds


@dataclass
class SimulationReport:
    plays: int
    seed: int
    wins: int
    win_frequency: Fraction
    event_counts: dict[str, tuple[int, int]]  # name -> (hits, wins among hits)


def _thresholds(masses: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """How one 64-bit draw picks an index of an exact distribution, as
    ``(skip, bounds)``: the pick is ``skip`` plus the number of bounds
    that the draw exceeds.

    Inversion sampling picks the first index whose cumulative mass
    ``cum / den`` exceeds ``draw / 2**64``, the last one if none does.
    ``cum * 2**64 <= draw * den`` holds exactly when the draw exceeds
    ``(cum * 2**64 - 1) // den``, an integer below 2**64 (``_NEVER`` when
    ``cum == den``).  Leading indices of mass zero are passed by every
    draw and counted in ``skip``; the last index needs no bound.
    """
    den = math.lcm(*(m.denominator for m in masses))
    cum, bounds = 0, []
    for m in masses[:-1]:
        cum += int(m * den)
        bounds.append(((cum << 64) - 1) // den)
    skip = bounds.count(-1)
    return skip, bounds[skip:]


def _draw_words(rng: random.Random, k: int) -> np.ndarray:
    """The next ``k`` values of ``rng.getrandbits(64)``, from one call.

    ``getrandbits(64 * k)`` fills its result with the generator's 32-bit
    outputs from the least significant end, as ``k`` calls of
    ``getrandbits(64)`` would (each call's first output is its low half),
    so its little-endian bytes are those ``k`` draws in order.
    """
    return np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"),
                         dtype="<u8")


class _Sampler:
    """A game and a profile compiled into flat arrays for :func:`simulate`.

    Each node owns a run of entries in one flat list: the node itself,
    then its children (a chance node's leading children of mass zero
    dropped, see :func:`_thresholds`).  ``kids[e]`` is the node of entry
    ``e``; ``bounds[e]`` is, at a chance node's child, the bound that a
    draw must exceed to pass on to the next child, and ``_NEVER``, which
    no draw exceeds, elsewhere.  A node's first entry is its own, or a
    chance node's first child's.

    The decisions are folded in per strategy pair ``p = i * n_cols + j``
    (row strategy ``i``, column strategy ``j``): a play under ``p`` lands,
    from node ``n``, on the node it reaches by following the pair's
    strategies through the decision nodes, stopping at a chance node, a
    terminal or a set where its strategy is undefined.  The landing table
    ``nxt[p * E + e]`` (``E`` entries) is the first entry of the node that
    the play lands on from entry ``e``'s node, and ``start[p]`` that of
    the root's; a terminal or a stuck node lands on itself.  It is built
    from the deepest level up, one numpy step per level.

    The flat list grows with the nodes, which the node cap bounds.  More
    than ``DEFAULT_CELL_BUDGET`` cells of the action table (strategies x
    (1 + the larger player's count of sets)), or of the landing table
    (pairs x entries), raise :class:`BudgetError` before that table is
    allocated.
    """

    def __init__(self, g: ExtensiveGame, lam: BehavioralStrategy,
                 row_mix: MixedStrategy, col_mix: MixedStrategy):
        strategies = row_mix.support + col_mix.support
        columns = 1 + max(len(g.information_partition(EXIST)),
                          len(g.information_partition(UNIV)))
        cells = len(strategies) * columns
        if cells > DEFAULT_CELL_BUDGET:
            raise BudgetError("sampler cell", DEFAULT_CELL_BUDGET, cells)
        self.owner = np.array(g.owner, dtype=np.int8)
        first, kids, bounds = [], [], []
        depth, chance_moves = [0] * len(g), [0] * len(g)
        self.chance_steps = 0  # the bounds of the widest chance node
        for node in range(len(g)):
            chance, children, cuts = g.owner[node] == NATURE, g.children[node], []
            if chance:
                skip, cuts = _thresholds(lam.distribution(node))
                children = children[skip:]
                self.chance_steps = max(self.chance_steps, len(cuts))
            first.append(len(kids) + chance)
            kids += [node, *children]
            bounds += [_NEVER, *cuts] + [_NEVER] * (len(children) - len(cuts))
            for kid in g.children[node]:
                depth[kid] = depth[node] + 1
                chance_moves[kid] = chance_moves[node] + chance
        first = np.array(first, dtype=np.intp)
        self.kids = np.array(kids, dtype=np.intp)
        self.bounds = np.array(bounds, dtype=np.uint64)
        # a play's run of words: row pick, column pick and one per chance
        # move on the tree's path with the most of them
        self.words_per_play = 2 + max(chance_moves)
        # 1 plus each strategy's action at each set, 0 where it is undefined
        actions = np.zeros((len(strategies), columns), dtype=np.intp)
        for k, (strategy, _) in enumerate(strategies):
            for index, act in strategy.actions:
                actions[k, index] = act + 1
        # a mix holds no zero mass, so its first strategy is never skipped
        _, row_bounds = _thresholds(tuple(w for _, w in row_mix))
        _, col_bounds = _thresholds(tuple(w for _, w in col_mix))
        self.row_bounds = np.array(row_bounds, dtype=np.uint64)
        self.col_bounds = np.array(col_bounds, dtype=np.uint64)
        n_rows, self.n_cols = len(row_mix.support), len(col_mix.support)
        pairs = n_rows * self.n_cols
        cells = pairs * len(kids)
        if cells > DEFAULT_CELL_BUDGET:
            raise BudgetError("sampler cell", DEFAULT_CELL_BUDGET, cells)
        row_of = np.repeat(np.arange(n_rows), self.n_cols)[:, None]
        col_of = n_rows + np.tile(np.arange(self.n_cols), n_rows)[:, None]
        depth, infoset = np.array(depth), np.array(g.infoset)
        decides = (self.owner == EXIST) | (self.owner == UNIV)
        # deepest level first, so a child's landing is final when its parent
        # reads it; an undefined action (0) picks the node's own entry, so
        # the node lands on itself
        land = np.tile(np.arange(len(g)), (pairs, 1))
        for level in range(depth.max() - 1, -1, -1):
            nodes = np.flatnonzero(decides & (depth == level))
            who = np.where(self.owner[nodes] == UNIV, col_of, row_of)
            to = self.kids[first[nodes] + actions[who, infoset[nodes]]]
            land[:, nodes] = np.take_along_axis(land, to, axis=1)
        self.nxt = first[land[:, self.kids]].ravel()
        self.start = first[land[:, g.root]]

    def walk(self, words: np.ndarray) -> np.ndarray:
        """Play each row of the (plays x ``words_per_play``) ``words`` once.

        A play picks its row strategy with its row's first word and its
        column strategy with the second, which fix its strategy pair; it
        starts where the pair lands from the root.  Each later word drives
        one chance move, in play order: a chance step passes each child
        whose bound the draw exceeds (the bounds rise along the children),
        and the play then jumps to where the pair lands from that child.
        A play at a terminal or a stuck node sits at its own entry, whose
        bound is ``_NEVER`` and which lands on itself, so a play with fewer
        chance moves ignores the rest of its row.  Returns each play's
        final node (not a terminal when a strategy was undefined on the
        way).  Every step gathers from 1-d arrays, which numpy does several
        times faster than from rows of 2-d ones.
        """
        pair = self.n_cols * np.searchsorted(self.row_bounds, words[:, 0]) \
            + np.searchsorted(self.col_bounds, words[:, 1])
        base = pair * len(self.kids)
        at = self.start[pair]
        for draw in words[:, 2:].T:
            for _ in range(self.chance_steps):
                at += draw > self.bounds[at]
            at = self.nxt[base + at]
        return self.kids[at]


def simulate(g: ExtensiveGame, lam: BehavioralStrategy,
             row_mix: MixedStrategy, col_mix: MixedStrategy,
             plays: int, seed: int,
             events: dict[str, EventPredicate] | None = None) -> SimulationReport:
    """Monte Carlo cross-check of a profile's win probability.

    One sequential stream of ``getrandbits(64)`` draws from a
    Mersenne-Twister generator (``random.Random(seed)``).  Each play reads
    a fixed run of ``words_per_play`` draws: row strategy, column strategy,
    then the chance moves reached along the play, in play order, each
    picked by exact integer inversion (:func:`_thresholds`).  The run has
    a word for each chance move on the tree's path with the most, so where
    plays meet fewer the samples differ from those of a loop that reads
    only the draws it needs.  Bit-for-bit reproducible for a fixed (game,
    profile, plays, seed).  A negative ``seed`` raises :class:`GameError`,
    as ``random.Random`` would replay the plays of its absolute value.

    The draws are taken in bulk (:func:`_draw_words`), identical to
    per-play draws in that order.  Each block of about
    ``_SAMPLE_BLOCK_WORDS`` of them, one row per play, is played at once
    on the compiled game (:class:`_Sampler`), one step per chance move,
    with the decisions of each strategy pair folded in, so memory grows
    neither with ``plays`` nor with the tree's depth.  ``numpy.random`` is
    deliberately not imported: the stdlib generator already gives these
    draws, and importing that module alone adds about 6 MB to the resident
    memory of a process (Python 3.11, numpy 2.4).
    """
    if plays < 1:
        raise GameError("plays must be at least 1")
    if seed < 0:
        raise GameError("seed must be non-negative")
    sampler = _Sampler(g, lam, row_mix, col_mix)
    rng = random.Random(seed)
    visits = np.zeros(len(g), dtype=np.int64)
    width = sampler.words_per_play
    block = max(1, _SAMPLE_BLOCK_WORDS // width)
    for done in range(0, plays, block):
        n = min(block, plays - done)
        ends = sampler.walk(_draw_words(rng, n * width).reshape(n, width))
        if (sampler.owner[ends] != TERMINAL).any():
            raise GameError("profile strategy undefined on a reached set")
        visits += np.bincount(ends, minlength=len(g))
    visited = {int(t): int(visits[t]) for t in np.flatnonzero(visits)}
    won = {t: g.winner_of[t] == EXIST for t in visited}
    wins = sum(count for t, count in visited.items() if won[t])
    event_counts = {}
    for name, event in (events or {}).items():
        hit = [t for t in visited if event.holds(g, t)]
        event_counts[name] = (sum(visited[t] for t in hit),
                              sum(visited[t] for t in hit if won[t]))
    return SimulationReport(plays, seed, wins, Fraction(wins, plays), event_counts)
