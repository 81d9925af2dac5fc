"""Strategies: pure, reduced, mixed, and the chance player's behavioral ones.

A reduced strategy is defined exactly on its owner's *own-reachable*
information sets: those containing a history consistent with the strategy's
own earlier choices.  Enumeration follows depth-first choice over the
canonical information-set order, so strategy indices are reproducible; the
whole enumeration is carried as one integer table (one row per strategy,
one column per information set, ``-1`` marking unreachable sets) because
interesting semantic games have strategy counts in the hundreds of
thousands.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, GameError, NatureStrategyError
from .game import EXIST, NATURE, TERMINAL, UNIV, ExtensiveGame, InfoSet

DEFAULT_STRATEGY_BUDGET = 10**6


# ------------------------------------------------------------ player plans

Constraints = tuple[tuple[int, int], ...]


@dataclass
class PlayerPlan:
    """Per-player enumeration data: information sets in canonical order plus,
    for every history, the (information set, action) pairs the player
    fixed on the way there; a strategy follows a history iff it matches
    all of them."""

    player: int
    infosets: tuple[InfoSet, ...]
    own: list[Constraints]  # per node
    member_constraints: list[list[Constraints]]  # per infoset, per member
    action_counts: np.ndarray


def player_plan(g: ExtensiveGame, player: int) -> PlayerPlan:
    cache = getattr(g, "_player_plans", None)
    if cache is None:
        cache = {}
        setattr(g, "_player_plans", cache)
    if player in cache:
        return cache[player]
    infosets = g.information_partition(player)
    infoset = g.infoset
    # node ids are assigned parent-first, so one forward pass fills the table
    own: list[Constraints] = [()]
    for node in range(1, len(g)):
        at = g.parent[node]
        if g.owner[at] == player:
            own.append(own[at] + ((infoset[at], g.edge[node]),))
        else:
            own.append(own[at])
    member_constraints = []
    for info in infosets:
        rows = [own[m] for m in info.members]
        for row in rows:
            for ci, _ in row:
                if ci >= info.index:
                    raise GameError(
                        "information structure not supported: a decision point "
                        "depends on a later information set"
                    )
        member_constraints.append(rows)
    plan = PlayerPlan(
        player,
        infosets,
        own,
        member_constraints,
        np.array([len(i.actions) for i in infosets], dtype=np.int64),
    )
    cache[player] = plan
    return plan


# -------------------------------------------------------------- strategies

class ReducedStrategy:
    """A plan restricted to its owner's own-reachable information sets."""

    __slots__ = ("game", "player", "actions")

    def __init__(self, game: ExtensiveGame, player: int,
                 actions: dict[int, int] | tuple[tuple[int, int], ...]):
        self.game = game
        self.player = player
        if isinstance(actions, dict):
            self.actions = tuple(sorted(actions.items()))
        else:
            self.actions = tuple(sorted(actions))

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


class PureStrategy:
    """A total plan: one action per information set of the owner."""

    __slots__ = ("game", "player", "actions")

    def __init__(self, game: ExtensiveGame, player: int, actions: tuple[int, ...]):
        self.game = game
        self.player = player
        self.actions = actions

    def action_at(self, infoset_index: int) -> int:
        return self.actions[infoset_index]


class StrategyList(Sequence):
    """The full reduced-strategy enumeration, materialized lazily."""

    def __init__(self, game: ExtensiveGame, player: int,
                 plan: PlayerPlan, table: np.ndarray):
        self.game = game
        self.player = player
        self.plan = plan
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i) -> ReducedStrategy:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        row = self.table[i]
        actions = {k: int(a) for k, a in enumerate(row) if a >= 0}
        return ReducedStrategy(self.game, self.player, actions)


def _reachable_rows(plan: PlayerPlan, k: int, table: np.ndarray) -> np.ndarray:
    n = len(table)
    reach = np.zeros(n, dtype=bool)
    for constraints in plan.member_constraints[k]:
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
    if player not in (EXIST, UNIV):
        raise GameError("reduced strategies exist for the two principal players only")
    plan = player_plan(g, player)
    k_total = len(plan.infosets)
    dtype = np.int8 if (len(plan.action_counts) == 0
                        or plan.action_counts.max() < 127) else np.int16
    table = np.full((1, k_total), -1, dtype=dtype)
    for k in range(k_total):
        reach = _reachable_rows(plan, k, table)
        n_act = int(plan.action_counts[k])
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
    return StrategyList(g, player, plan, table)


def own_reachable_closure(plan: PlayerPlan, choose) -> dict[int, int]:
    """Walk ``plan``'s information sets in canonical order and ask
    ``choose(InfoSet) -> action index`` at each one the choices made so far
    leave reachable; returns the choices, keyed by information set index."""
    chosen: dict[int, int] = {}
    for k, info in enumerate(plan.infosets):
        if any(all(chosen.get(ci) == ai for ci, ai in constraints)
               for constraints in plan.member_constraints[k]):
            chosen[k] = choose(info)
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

    return ReducedStrategy(g, player,
                           own_reachable_closure(player_plan(g, player), action))


def count_pure_strategies(g: ExtensiveGame, player: int) -> int:
    """Number of full pure strategies (product of action counts)."""
    total = 1
    for info in g.information_partition(player):
        total *= len(info.actions)
    return total


def extend_to_pure(sigma: ReducedStrategy, fill) -> PureStrategy:
    """Extend a reduced strategy to a total one; ``fill(InfoSet) -> action``
    decides the unreachable sets."""
    infosets = sigma.game.information_partition(sigma.player)
    chosen = dict(sigma.actions)
    out = []
    for info in infosets:
        if info.index in chosen:
            out.append(chosen[info.index])
        else:
            out.append(int(fill(info)))
    return PureStrategy(sigma.game, sigma.player, tuple(out))


def follows(node: int, sigma) -> bool:
    """True iff the owner of ``sigma`` follows it along the history ``node``."""
    own = player_plan(sigma.game, sigma.player).own[node]
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


def outcome_distribution(g: ExtensiveGame, lam: BehavioralStrategy,
                         sigma: ReducedStrategy, tau: ReducedStrategy
                         ) -> dict[int, Fraction]:
    """Distribution over terminal histories under the profile (λ, σ, τ).

    The support holds every terminal followed by both strategies (including
    chance branches of probability zero); masses are the products of the
    chance probabilities along each history and sum to exactly 1.
    """
    infoset = g.infoset
    dist: dict[int, Fraction] = {}
    stack: list[tuple[int, Fraction]] = [(g.root, Fraction(1))]
    while stack:
        node, mass = stack.pop()
        owner = g.owner[node]
        if owner == TERMINAL:
            dist[node] = mass
        elif owner == NATURE:
            for child, p in zip(g.children[node], lam.distribution(node)):
                stack.append((child, mass * p))
        else:
            strat = sigma if owner == EXIST else tau
            act = strat.action_at(infoset[node])
            if act is None:
                info = g.information_partition(owner)[infoset[node]]
                raise GameError(
                    f"strategy for {'I' if owner == EXIST else 'II'} undefined "
                    f"at reachable set {info.label}"
                )
            stack.append((g.children[node][act], mass))
    return dist
