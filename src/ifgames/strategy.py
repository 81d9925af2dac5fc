"""Strategies: pure, reduced, mixed, and the chance player's behavioral ones.

A reduced strategy is defined exactly on its owner's *own-reachable*
information sets: those containing a history consistent with the strategy's
own earlier choices.  Enumeration follows depth-first choice over the
canonical information-set order, so strategy indices are reproducible; the
whole enumeration is carried as one integer table (one row per strategy,
one column per information set, ``-1`` marking unreachable sets) because
interesting semantic games have strategy counts in the hundreds of
thousands.  :func:`follow_classes` reaches the classes of strategies that
follow the same histories, one row per class (its first member), without
that table.  :func:`play_masses` gives, per node, the probability that play
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
# cells of one table: a frontier step's 64-bit words here; in solver.py the
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
    one width rule for the integer tables of strategies.  Action counts and
    walk positions stay below 2**63 (see :func:`follow_classes`)."""
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
    ``budget`` (the count reached is reported).
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
        src = np.repeat(np.arange(len(table), dtype=np.int64), counts)
        new = table[src]
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        new[:, k] = np.where(reach[src], pos, -1).astype(dtype)
        table = new
    return StrategyList(g, player, table)


def follow_classes(g: ExtensiveGame, player: int, nodes: Sequence[int],
                   budget: int = DEFAULT_STRATEGY_BUDGET
                   ) -> tuple[StrategyList, np.ndarray, int]:
    """The classes of ``player``'s reduced strategies that follow the same
    histories among ``nodes``, without enumerating the strategies.

    Returns a :class:`StrategyList` with one row per class, the row of its
    first member, in enumeration order; the boolean (classes x nodes)
    follow table of those members; and the number of strategies.  Raises
    :class:`BudgetError` where :func:`enumerate_reduced` would, with the
    same count reached; a budget too large for exact 64-bit counts acts
    as the largest one that keeps them exact.  A set whose children would
    take more than ``DEFAULT_CELL_BUDGET`` state words raises the
    "frontier cell" :class:`BudgetError` before they are allocated.

    A frontier walk over the information sets in canonical order.  An
    *item* is the own history (:func:`own_histories`) of a member of a set
    or of a node in ``nodes``; the state of a partial strategy is the
    bitmask of the items its choices so far allow, less the members of the
    sets already walked.  The completions of a partial strategy and the nodes
    they follow depend on its state alone.  At set k a state that allows a
    member of k branches into one child per action, in action order, and
    any other state passes through, as the ``-1`` of the enumeration
    does.  Children in the same state merge into the first of them and add
    up the partial strategies they stand for, so depth-first order, which
    is enumeration order, keeps each state's first partial strategy; their
    running count is enumeration's row count at every set, and it bounds
    the frontier.  After the last set only node bits are left, and the
    states are the classes; walking back from them through the sets gives
    their first members' rows.
    """
    own = own_histories(g, player)
    infosets = g.information_partition(player)
    k_total = len(infosets)
    # per item, the last set that reads it (nodes are read at the end); bits
    # go to items in order of last use, latest first, so that the items a
    # state still holds after set k fill its first ``words[k]`` words
    last: dict[Constraints, int] = {}
    for info in infosets:
        for m in info.members:
            last[own[m]] = info.index
    for node in nodes:
        last[own[node]] = k_total
    items = sorted(last, key=last.get, reverse=True)
    bit = {constraints: i for i, constraints in enumerate(items)}
    words = [sum(1 for c in items if last[c] > k) // 64 + 1
             for k in range(k_total)]
    widest = max((len(info.actions) for info in infosets), default=0)
    reach = np.zeros((k_total, len(bit)), dtype=bool)
    # keep[k, a]: the items that action a at set k allows and that later sets
    # or the nodes still read; row ``widest`` is for states that pass through
    keep = np.ones((k_total, widest + 1, len(bit)), dtype=bool)
    for c, i in bit.items():
        keep[last[c]:, :, i] = False
        for ci, ai in c:
            keep[ci, :ai, i] = False
            keep[ci, ai + 1:widest, i] = False
    for info in infosets:
        reach[info.index, [bit[own[m]] for m in info.members]] = True

    def pack(bits: np.ndarray) -> np.ndarray:
        """Bits along the last axis to ``uint64`` words along the first."""
        padded = np.zeros(bits.shape[:-1] + (len(bit) // 64 * 64 + 64,), dtype=bool)
        padded[..., :len(bit)] = bits
        return np.moveaxis(
            np.packbits(padded, axis=-1, bitorder="little").view("<u8"), -1, 0)

    reach, keep = pack(reach), pack(keep)  # (words, sets), (words, sets, actions)
    states = pack(np.ones((1, len(bit)), dtype=bool))  # (words, states)
    counts = np.ones(1, dtype=np.int64)
    # a count grows at most ``widest``-fold per set, so int64 counts stay
    # exact below this limit; positions stay below it too
    limit = min(budget, (2**63 - 1) // max(widest, 1))
    position = _smallest_int_dtype(limit)
    dtype = _smallest_int_dtype(widest)
    steps = []
    for k in range(k_total):
        live = np.zeros(states.shape[1], dtype=bool)
        for row, mask in zip(states, reach[:, k]):
            live |= (row & mask) != 0
        widths = np.where(live, len(infosets[k].actions), 1)
        total = int(counts @ widths)
        if total > limit:
            raise BudgetError("strategy", limit, total)
        kept = words[k]
        cells = kept * int(widths.sum())
        if cells > DEFAULT_CELL_BUDGET:  # the children's words, not yet taken
            raise BudgetError("frontier cell", DEFAULT_CELL_BUDGET, cells)
        offsets = np.zeros(len(widths) + 1, dtype=position)
        np.cumsum(widths, out=offsets[1:])
        parent = np.repeat(np.arange(len(widths), dtype=position), widths)
        action = np.where(live[parent],
                          np.arange(offsets[-1]) - offsets[parent], widest)
        children = (np.take(states[:kept], parent, axis=1)
                    & np.take(keep[:kept, k], action, axis=1))
        first, counts = _merge(children, counts[parent])
        states = np.take(children, first, axis=1)
        # the first partial strategy of each state: its parent's plus one
        # action, or none at a set it passes through
        up = parent[first]
        steps.append((up, np.where(live[up], action[first], -1).astype(dtype)))
    at = np.arange(states.shape[1], dtype=position)
    table = np.empty((k_total, states.shape[1]), dtype=dtype)
    for k in reversed(range(k_total)):
        up, chosen = steps[k]
        table[k] = chosen[at]
        at = up[at]
    follow = np.empty((len(nodes), states.shape[1]), dtype=bool)
    for row, node in zip(follow, nodes):
        word, shift = divmod(bit[own[node]], 64)
        row[:] = (states[word] >> np.uint64(shift)) & np.uint64(1)
    return StrategyList(g, player, table.T), follow.T, int(counts.sum())


def _merge(columns: np.ndarray, counts: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal columns of a (words x n) ``uint64`` array.

    Returns the first column of each group, ascending, and the sum of
    ``counts`` over each group.  Columns are sorted by a 64-bit key, and
    equal keys are accepted as one group only once the columns under them
    are seen to be equal; another key is drawn otherwise.
    """
    n = columns.shape[1]
    salt = 0
    while True:
        # one word is its own key; a salt changes the mixing of several
        key = columns[0] ^ np.uint64(salt)
        for word in columns[1:]:
            key = _mix(key) ^ word
        order = np.argsort(key)
        ordered = key[order]
        start = np.ones(n, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
        if start.all():  # no two keys alike, so no two columns either
            return np.arange(n), counts
        same = ~start[1:]
        later, earlier = order[1:][same], order[:-1][same]
        if all(np.array_equal(word[later], word[earlier]) for word in columns):
            break
        salt += 1
    starts = np.flatnonzero(start)
    first = np.minimum.reduceat(order, starts)
    in_order = np.argsort(first)
    return first[in_order], np.add.reduceat(counts[order], starts)[in_order]


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, a bijection of ``uint64``."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


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


def uniform_nature(g: ExtensiveGame) -> BehavioralStrategy:
    """The uniform behavioral strategy at every chance decision point."""
    dists = {}
    for node in g.chance_nodes():
        n = len(g.children[node])
        dists[node] = tuple(Fraction(1, n) for _ in range(n))
    return BehavioralStrategy(g, dists)


def embedded_nature(g: ExtensiveGame) -> BehavioralStrategy:
    """The behavioral strategy a ``.game`` file declared inline (uniform at
    chance points it gives no probabilities for)."""
    return BehavioralStrategy(g, {**uniform_nature(g).dists, **g.embedded_chance})


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
