"""Strategies: pure, reduced, mixed, and the chance player's behavioral ones.

A reduced strategy is defined exactly on its owner's *own-reachable*
information sets: those containing a history consistent with the strategy's
own earlier choices.  Enumeration follows depth-first choice over the
canonical information-set order, so strategy indices are reproducible; the
whole enumeration is carried as one integer table (one row per strategy,
one column per information set, ``-1`` marking unreachable sets) because
interesting semantic games have strategy counts in the hundreds of
thousands.  :func:`play_masses` gives, per node, the probability that play
under a chance strategy and any mixes reaches it, in integers over one
scale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .errors import BudgetError, GameError, NatureStrategyError
from .game import EXIST, NATURE, UNIV, ExtensiveGame, InfoSet

DEFAULT_STRATEGY_BUDGET = 10**6
# cells of one table: the enumeration's strategy table here; in solver.py the
# payoff cells (a guard before the double-oracle loop, whose exact LPs would
# run for hours on phi_mh on six doors), one side's follow cells and the
# sampler's action table
DEFAULT_CELL_BUDGET = 10**8


# ------------------------------------------------------------ own histories

Constraints = tuple[tuple[int, int], ...]


def own_histories(g: ExtensiveGame, player: int) -> list[Constraints]:
    """Per node, the (information set, action) pairs ``player`` fixed on
    the way there; a strategy follows a history iff it matches all of them.
    Cached on ``g`` per player.  Raises :class:`GameError` when a member of
    a set depends on that set or a later one, which only a ``.game`` file
    can declare."""
    if player in g.own_histories:
        return g.own_histories[player]
    if player not in (EXIST, UNIV):
        raise GameError("reduced strategies exist for the two principal players only")
    infoset = g.infoset
    # node ids are assigned parent-first, so one forward pass fills the table
    own: list[Constraints] = [()]
    for node in range(1, len(g)):
        at = g.parent[node]
        if g.owner[at] == player:
            own.append(own[at] + ((infoset[at], g.edge[node]),))
        else:
            own.append(own[at])
    for info in g.information_partition(player):
        if any(ci >= info.index for m in info.members for ci, _ in own[m]):
            raise GameError(
                "information structure not supported: a decision point "
                "depends on a later information set"
            )
    g.own_histories[player] = own
    return own


# -------------------------------------------------------------- strategies

class ReducedStrategy:
    """A plan restricted to its owner's own-reachable information sets."""

    __slots__ = ("game", "player", "actions")

    def __init__(self, game: ExtensiveGame, player: int,
                 actions: dict[int, int] | tuple[tuple[int, int], ...]):
        self.game = game
        self.player = player
        self.actions = tuple(sorted(dict(actions).items()))

    def action_at(self, infoset_index: int) -> int | None:
        for idx, act in self.actions:
            if idx == infoset_index:
                return act
        return None

    def lines(self) -> tuple[str, ...]:
        """Canonical pretty-printer lines, one per information set."""
        infosets = self.game.information_partition(self.player)
        return tuple(
            f"{infosets[idx].label} -> {infosets[idx].actions[act]}"
            for idx, act in self.actions
        )

    def key(self):
        return (self.player, self.actions)

    def __eq__(self, other):
        return (isinstance(other, ReducedStrategy)
                and self.game is other.game and self.key() == other.key())

    def __hash__(self):
        return hash((id(self.game),) + self.key())

    def __repr__(self):
        return f"ReducedStrategy({'I' if self.player == EXIST else 'II'}; " \
               f"{'; '.join(self.lines())})"


class StrategyList(Sequence):
    """Reduced strategies of one player, one per row of ``table`` (one
    column per information set, ``-1`` marking unreachable sets)."""

    def __init__(self, game: ExtensiveGame, player: int, table: np.ndarray):
        self.game = game
        self.player = player
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i: int) -> ReducedStrategy:
        row = self.table[range(len(self))[i]]
        actions = {k: int(a) for k, a in enumerate(row) if a >= 0}
        return ReducedStrategy(self.game, self.player, actions)


def _smallest_int_dtype(max_value: int):
    """The narrowest signed integer type that holds ``0..max_value``: the
    one width rule for the integer tables of strategies."""
    for dtype in (np.int8, np.int16, np.int32):
        if max_value <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _reachable_rows(histories: list[Constraints], table: np.ndarray) -> np.ndarray:
    n = len(table)
    reach = np.zeros(n, dtype=bool)
    for constraints in histories:
        ok = np.ones(n, dtype=bool)
        for ci, ai in constraints:
            ok &= table[:, ci] == ai
        reach |= ok
        if reach.all():
            break
    return reach


def enumerate_reduced(g: ExtensiveGame, player: int,
                      budget: int = DEFAULT_STRATEGY_BUDGET) -> StrategyList:
    """Every reduced strategy of ``player``, in depth-first choice order.

    Raises :class:`BudgetError` as soon as the running count passes
    ``budget`` (the count reached is reported), or the table would pass
    ``DEFAULT_CELL_BUDGET`` cells, before that table is allocated.
    """
    own = own_histories(g, player)
    infosets = g.information_partition(player)
    widest = max((len(info.actions) for info in infosets), default=0)
    dtype = _smallest_int_dtype(widest)
    table = np.full((1, len(infosets)), -1, dtype=dtype)
    for k, info in enumerate(infosets):
        reach = _reachable_rows([own[m] for m in info.members], table)
        n_act = len(info.actions)
        counts = np.where(reach, n_act, 1).astype(np.int64)
        total = int(counts.sum())
        if total > budget:
            raise BudgetError("strategy", budget, total)
        cells = total * len(infosets)
        if cells > DEFAULT_CELL_BUDGET:  # the next table's cells, not yet taken
            raise BudgetError("strategy cell", DEFAULT_CELL_BUDGET, cells)
        src = np.repeat(np.arange(len(table), dtype=np.int64), counts)
        new = table[src]
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        new[:, k] = np.where(reach[src], pos, -1).astype(dtype)
        table = new
    return StrategyList(g, player, table)


def own_reachable_closure(g: ExtensiveGame, player: int, choose) -> dict[int, int]:
    """Walk ``player``'s information sets in canonical order and ask
    ``choose(InfoSet) -> action index`` at each one the choices made so far
    leave reachable; returns the choices, keyed by information set index."""
    own = own_histories(g, player)
    chosen: dict[int, int] = {}
    for info in g.information_partition(player):
        if any(all(chosen.get(ci) == ai for ci, ai in own[m])
               for m in info.members):
            chosen[info.index] = choose(info)
    return chosen


def reduced_from_rules(g: ExtensiveGame, player: int, choose) -> ReducedStrategy:
    """Build one reduced strategy from a rule ``choose(InfoSet) -> action label``.

    The domain is closed over own-reachability given the choices the rule
    makes, walking information sets in canonical order.
    """
    def action(info: InfoSet) -> int:
        label = choose(info)
        if label is None:
            raise GameError(f"rule gave no action for reachable set {info.label}")
        act = info.actions.index(label) if isinstance(label, str) else int(label)
        if not 0 <= act < len(info.actions):
            raise GameError(f"bad action for {info.label}")
        return act

    return ReducedStrategy(g, player, own_reachable_closure(g, player, action))


def follows(node: int, sigma) -> bool:
    """True iff the owner of ``sigma`` follows it along the history ``node``."""
    own = own_histories(sigma.game, sigma.player)[node]
    return all(sigma.action_at(k) == act for k, act in own)


class MixedStrategy:
    """Finitely supported exact-rational distribution over reduced strategies."""

    def __init__(self, player: int, support: Sequence[tuple[ReducedStrategy, Fraction]]):
        self.player = player
        self.support = tuple((s, Fraction(w)) for s, w in support if w != 0)
        if any(w < 0 for _, w in self.support):
            raise GameError("negative mass in mixed strategy")
        if sum(w for _, w in self.support) != 1:
            raise GameError("mixed strategy masses must sum to 1")

    @staticmethod
    def pure(sigma: ReducedStrategy) -> "MixedStrategy":
        return MixedStrategy(sigma.player, [(sigma, Fraction(1))])

    def __iter__(self):
        return iter(self.support)


class BehavioralStrategy:
    """Chance player's plan: a distribution per chance decision point."""

    def __init__(self, game: ExtensiveGame, dists: dict[int, tuple[Fraction, ...]]):
        self.game = game
        self.dists = dists
        for node in game.chance_nodes():
            if node not in dists:
                raise NatureStrategyError(
                    f"no distribution for chance point {node}"
                )
            probs = dists[node]
            if len(probs) != len(game.children[node]):
                raise NatureStrategyError(f"bad distribution arity at node {node}")
            if any(p < 0 for p in probs):
                raise NatureStrategyError(f"negative probability at node {node}")
            if sum(probs, Fraction(0)) != 1:
                raise NatureStrategyError(
                    f"probabilities at chance point {node} do not sum to 1"
                )

    def distribution(self, node: int) -> tuple[Fraction, ...]:
        return self.dists[node]


def uniform_dists(g: ExtensiveGame) -> dict[int, tuple[Fraction, ...]]:
    """The uniform distribution at every chance decision point, by node."""
    dists = {}
    for node in g.chance_nodes():
        n = len(g.children[node])
        dists[node] = tuple(Fraction(1, n) for _ in range(n))
    return dists


def uniform_nature(g: ExtensiveGame) -> BehavioralStrategy:
    """The uniform behavioral strategy at every chance decision point."""
    return BehavioralStrategy(g, uniform_dists(g))


def embedded_nature(g: ExtensiveGame) -> BehavioralStrategy:
    """The behavioral strategy a ``.game`` file declared inline (uniform at
    chance points it gives no probabilities for)."""
    return BehavioralStrategy(g, {**uniform_dists(g), **g.embedded_chance})


def play_masses(g: ExtensiveGame, lam: BehavioralStrategy,
                *mixes: MixedStrategy) -> tuple[list[int], int]:
    """Per node, the probability that play under λ and ``mixes`` reaches
    it, as integers over one scale: ``(masses, scale)``.

    That probability is the product of the chance probabilities along the
    node's history and, per mix, the mass of its strategies that follow the
    node; a player with no mix is free, so ``play_masses(g, lam)`` is the
    chance mass of every node.  Each strategy walks the nodes it follows,
    through every chance branch, and one with no action at such a node
    raises :class:`GameError` when every other mix follows the node too.
    A node ``c`` chance moves deep has chance mass ``num / unit**c``,
    ``unit`` the lcm of the chance denominators.
    """
    unit = math.lcm(*(p.denominator for dist in lam.dists.values() for p in dist))
    steps = {node: [int(p * unit) for p in dist] for node, dist in lam.dists.items()}
    infoset, children, owner = g.infoset, g.children, g.owner
    chance: dict[int, tuple[int, int]] = {}  # node -> (num, chance moves)
    stuck = []

    def walk(player, chosen: dict[int, int], weight: int, follow: dict):
        stack = [(g.root, 1, 0)]
        while stack:
            node, num, moves = stack.pop()
            follow[node] = follow.get(node, 0) + weight
            chance[node] = num, moves
            if owner[node] == NATURE:
                stack += [(kid, num * step, moves + 1)
                          for kid, step in zip(children[node], steps[node])]
            elif owner[node] != player:
                stack += [(kid, num, moves) for kid in children[node]]
            elif infoset[node] in chosen:
                stack.append((children[node][chosen[infoset[node]]], num, moves))
            else:
                stuck.append((player, node, follow))

    follows, scale = [], 1
    for mix in mixes:
        q = math.lcm(*(w.denominator for _, w in mix))
        follows.append({})
        for sigma, w in mix:
            walk(sigma.player, dict(sigma.actions), int(w * q), follows[-1])
        scale *= q
    if not mixes:
        walk(None, {}, 1, {})
    for player, node, follow in stuck:
        if all(node in other for other in follows if other is not follow):
            info = g.information_partition(player)[infoset[node]]
            raise GameError(
                f"strategy for {'I' if player == EXIST else 'II'} undefined "
                f"at reachable set {info.label}"
            )
    depth = max(moves for _, moves in chance.values())
    masses = [0] * len(g)
    for node, (num, moves) in chance.items():
        masses[node] = num * unit ** (depth - moves)
        for follow in follows:
            masses[node] *= follow.get(node, 0)
    return masses, unit ** depth * scale
