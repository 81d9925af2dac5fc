"""Extensive games and the semantic game of a sentence on a structure.

Histories are nodes of an explicit tree; a node id *is* the history (the
tree is prefix-closed by construction, and each node caches its induced
assignment and current subformula occurrence).  The same representation
hosts hand-built games read from ``.game`` files, which carry declared
information-set labels instead of the computed indistinguishability
relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, GameError, StructureError
from .formula import (
    And,
    ChanceOr,
    Exists,
    Forall,
    Formula,
    Literal,
    OccurrenceId,
    Or,
    free_variables,
    occurrence_label,
    occurrences,
)
from .structure import Assignment, Structure, compile_literal

EXIST, UNIV, NATURE = 0, 1, 2
TERMINAL = -1

PLAYER_NAMES = {EXIST: "I", UNIV: "II", NATURE: "chance"}
DEFAULT_NODE_CAP = 10**6


@dataclass(frozen=True)
class InfoSet:
    """An information set: histories its owner cannot tell apart.

    ``label`` is the canonical identity used by the strategy pretty-printer:
    the occurrence path plus the assignment class (the bindings the player
    is allowed to see), or the declared label for hand-built games.
    """

    player: int
    label: str
    members: tuple[int, ...]
    actions: tuple[str, ...]
    index: int


class ExtensiveGame:
    """Win-lose extensive game with imperfect information and chance moves."""

    def __init__(self):
        self.parent: list[int] = []
        self.children: list[list[int]] = []
        # position of each node among its parent's children (-1 at the root)
        self.edge: list[int] = []
        self.move: list[str] = []
        self.owner: list[int] = []
        self.winner_of: list[int | None] = []
        self.assignment: list[Assignment] = []
        self.occ: list[OccurrenceId | None] = []
        self.info_label: list[str | None] = []
        # chance probabilities embedded in a .game file, per chance node
        self.embedded_chance: dict[int, tuple[Fraction, ...]] = {}
        self._partitions: dict[int, tuple[InfoSet, ...]] = {}
        self._infoset: list[int] = []

    # ---------------------------------------------------------- tree access

    def add_node(self, parent: int, move: str, owner: int,
                 assignment: Assignment, occ: OccurrenceId | None = None,
                 info_label: str | None = None, winner: int | None = None) -> int:
        node = len(self.parent)
        self.parent.append(parent)
        self.children.append([])
        self.edge.append(len(self.children[parent]) if parent >= 0 else -1)
        self.move.append(move)
        self.owner.append(owner)
        self.winner_of.append(winner)
        self.assignment.append(assignment)
        self.occ.append(occ)
        self.info_label.append(info_label)
        if parent >= 0:
            self.children[parent].append(node)
        return node

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return 0

    def is_terminal(self, node: int) -> bool:
        return self.owner[node] == TERMINAL

    def actions(self, node: int) -> tuple[str, ...]:
        return tuple(self.move[c] for c in self.children[node])

    def terminals(self) -> list[int]:
        return [n for n in range(len(self)) if self.is_terminal(n)]

    def nonterminals(self, player: int | None = None) -> list[int]:
        return [
            n for n in range(len(self))
            if not self.is_terminal(n) and (player is None or self.owner[n] == player)
        ]

    def chance_nodes(self) -> list[int]:
        return self.nonterminals(NATURE)

    def ancestors(self, node: int) -> list[int]:
        """Proper prefixes of ``node``, root first."""
        out: list[int] = []
        node = self.parent[node]
        while node >= 0:
            out.append(node)
            node = self.parent[node]
        return list(reversed(out))

    def variables(self) -> tuple[str, ...]:
        """Variables assigned by quantifier moves anywhere in the game."""
        seen: list[str] = []
        for node in range(len(self)):
            for var, _ in self.assignment[node].bindings():
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    # -------------------------------------------------------- information

    def information_partition(self, player: int) -> tuple[InfoSet, ...]:
        if not self._partitions:
            self._infoset = [-1] * len(self)
            self._partitions = {p: self._compute_partition(p)
                                for p in (EXIST, UNIV, NATURE)}
        return self._partitions[player]

    @property
    def infoset(self) -> list[int]:
        """Per node, the index of its information set in its owner's
        partition (-1 at terminals)."""
        self.information_partition(EXIST)
        return self._infoset

    def _compute_partition(self, player: int) -> tuple[InfoSet, ...]:
        nodes = self.nonterminals(player)
        groups: dict[str, list[int]] = {}
        for node in nodes:
            groups.setdefault(self._class_label(node), []).append(node)
        # canonical order: occurrence preorder first, then first member history
        def sort_key(kv):
            members = kv[1]
            first = min(members)
            return (self._occ_sort_index(first), first)

        infosets: list[InfoSet] = []
        for label, members in sorted(groups.items(), key=sort_key):
            members.sort()
            action_sets = {self.actions(m) for m in members}
            if len(action_sets) != 1:
                raise GameError(
                    f"information set {label} members have differing action sets"
                )
            for m in members:
                for anc in self.ancestors(m):
                    if anc in members:
                        raise GameError(
                            f"information set {label} contains a history and its prefix"
                        )
            for m in members:
                self._infoset[m] = len(infosets)
            infosets.append(InfoSet(player, label, tuple(members),
                                    next(iter(action_sets)), len(infosets)))
        return tuple(infosets)

    def _class_label(self, node: int) -> str:
        if self.info_label[node] is not None:
            return f"@{self.info_label[node]}[]"
        if self.owner[node] == NATURE:
            # all chance information sets are singletons
            items = ",".join(f"{v}={x}" for v, x in
                             sorted(self.assignment[node].as_dict().items()))
            return f"@{occurrence_label(self.occ[node])}[{items}]#{node}"
        slash = self._slash_at(node)
        items = ",".join(
            f"{v}={x}" for v, x in self.assignment[node].restricted_items(slash)
        )
        return f"@{occurrence_label(self.occ[node])}[{items}]"

    def _slash_at(self, node: int) -> frozenset[str]:
        return frozenset()

    def _occ_sort_index(self, node: int) -> int:
        return 0

    # -------------------------------------------------------------- checks

    def validate(self):
        """Raise on violations of the extensive-game definition clauses."""
        for player in (EXIST, UNIV, NATURE):
            self.information_partition(player)
        for info in self.information_partition(NATURE):
            if len(info.members) != 1:
                raise GameError(
                    f"chance information set {info.label} is not a singleton"
                )
        for node in range(len(self)):
            if self.is_terminal(node):
                if self.winner_of[node] not in (EXIST, UNIV):
                    raise GameError(f"terminal history {node} has no winner")
                if self.children[node]:
                    raise GameError(f"terminal history {node} has successors")
            elif not self.children[node]:
                raise GameError(f"nonterminal history {node} has no actions")
        for node, probs in self.embedded_chance.items():
            if sum(probs, Fraction(0)) != 1:
                raise GameError(f"chance probabilities at node {node} do not sum to 1")
            if any(p < 0 for p in probs):
                raise GameError(f"negative chance probability at node {node}")


class SemanticGame(ExtensiveGame):
    """The semantic evaluation game of a sentence on a suitable structure."""

    def __init__(self, structure: Structure, phi: Formula):
        super().__init__()
        self.structure = structure
        self.formula = phi
        self.occ_list = occurrences(phi)
        self.occ_node: dict[OccurrenceId, Formula] = dict(self.occ_list)
        self.occ_order: dict[OccurrenceId, int] = {
            path: i for i, (path, _) in enumerate(self.occ_list)
        }

    def _slash_at(self, node: int) -> frozenset[str]:
        sub = self.occ_node[self.occ[node]]
        if isinstance(sub, (Or, And, Exists, Forall)):
            return sub.slash
        return frozenset()

    def _occ_sort_index(self, node: int) -> int:
        return self.occ_order[self.occ[node]]

    def subformula_at(self, node: int) -> Formula:
        return self.occ_node[self.occ[node]]


def build_semantic_game(m: Structure, phi: Formula,
                        node_cap: int = DEFAULT_NODE_CAP) -> SemanticGame:
    """Materialize the full game tree of ``phi`` on ``m``.

    Quantifier and chance-quantifier nodes branch once per universe element;
    connective nodes branch to their two child occurrences; play ends at
    literals, where the winner is decided by the literal's compiled truth
    test under the induced assignment.  Every literal occurrence is compiled,
    in preorder, before any node is built, so an unsuitable structure is
    reported before the node cap can fire.
    """
    fv = free_variables(phi)
    if fv:
        raise GameError(f"not a sentence: free variables {sorted(fv)}")
    game = SemanticGame(m, phi)
    try:
        tests = {path: compile_literal(m, sub) for path, sub in game.occ_list
                 if isinstance(sub, Literal)}
    except StructureError as exc:
        raise GameError(f"structure not suitable: {exc}") from exc

    stack: list[tuple[OccurrenceId, Formula, int, str, Assignment]] = [
        ((), phi, -1, "", Assignment.empty())
    ]
    while stack:
        path, sub, parent, move, s = stack.pop()
        if isinstance(sub, Literal):
            winner = EXIST if tests[path](s) else UNIV
            game.add_node(parent, move, TERMINAL, s, path, winner=winner)
            continue
        if isinstance(sub, (Or, And, ChanceOr)):
            owner = EXIST if isinstance(sub, Or) else UNIV if isinstance(sub, And) else NATURE
            node = game.add_node(parent, move, owner, s, path)
            # reversed so children expand left-to-right in preorder
            stack.append((path + (1,), sub.right, node, "R", s))
            stack.append((path + (0,), sub.left, node, "L", s))
        else:
            owner = (EXIST if isinstance(sub, Exists)
                     else UNIV if isinstance(sub, Forall) else NATURE)
            node = game.add_node(parent, move, owner, s, path)
            for el in reversed(m.universe):
                stack.append((path + (0,), sub.body, node, el, s.extend(sub.var, el)))
        if len(game) > node_cap:
            raise BudgetError("game node", node_cap, len(game))
    if len(game) > node_cap:
        raise BudgetError("game node", node_cap, len(game))
    return game


def winner(g: ExtensiveGame, node: int) -> int:
    """Winner of a terminal history (EXIST or UNIV)."""
    if not g.is_terminal(node):
        raise GameError(f"history {node} is not terminal")
    w = g.winner_of[node]
    assert w is not None
    return w


def export_dot(g: ExtensiveGame) -> str:
    """Graphviz text for the game tree.

    Owners get distinct shapes, terminals show their winner (the maximizer's
    wins are grayed), and every non-singleton information set is drawn as a
    same-rank cluster chained by dotted edges, like the paper-style figures.
    """
    lines = ["digraph game {", "  rankdir=LR;", "  node [fontsize=10];"]
    shapes = {EXIST: "box", UNIV: "ellipse", NATURE: "diamond"}
    for node in range(len(g)):
        if g.is_terminal(node):
            w = g.winner_of[node]
            fill = ', style=filled, fillcolor="gray70"' if w == EXIST else ""
            lines.append(
                f'  n{node} [shape=point, xlabel="{PLAYER_NAMES[w]}"{fill}];'
            )
        else:
            label = PLAYER_NAMES[g.owner[node]]
            if g.occ[node] is not None:
                label += f" {occurrence_label(g.occ[node])}"
            elif g.info_label[node]:
                label += f" {g.info_label[node]}"
            lines.append(f'  n{node} [shape={shapes[g.owner[node]]}, label="{label}"];')
    for node in range(1, len(g)):
        parent = g.parent[node]
        label = g.move[node]
        if g.owner[parent] == NATURE and parent in g.embedded_chance:
            label += f" ({g.embedded_chance[parent][g.edge[node]]})"
        lines.append(f'  n{parent} -> n{node} [label="{label}"];')
    cluster = 0
    for player in (EXIST, UNIV):
        for info in g.information_partition(player):
            if len(info.members) < 2:
                continue
            members = " ".join(f"n{m};" for m in info.members)
            lines.append(f"  subgraph cluster_info{cluster} {{ rank=same; style=invis; {members} }}")
            chain = list(info.members)
            for a, b in zip(chain, chain[1:]):
                lines.append(
                    f"  n{a} -> n{b} [style=dotted, dir=none, constraint=false];"
                )
            cluster += 1
    lines.append("}")
    return "\n".join(lines) + "\n"
