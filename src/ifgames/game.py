"""Extensive games and the semantic game of a sentence on a structure.

Histories are nodes of an explicit tree; a node id *is* the history (the
tree is prefix-closed by construction).  Each node keeps its subformula
occurrence and the variable its moves bind, if any, so a history's
quantifier moves are read off its path (:meth:`ExtensiveGame.bindings`).
One class hosts both the semantic game of a sentence and a hand-built game
read from a ``.game`` file: each player's node is added with its
information set's label and the key that orders the sets, and is filed
under that label then, so the partition only sorts the filed groups.
Chance nodes have no sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, GameError, StructureError
from .formula import (
    ChanceOr,
    ChanceQ,
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
from .structure import Structure, compile_literal

EXIST, UNIV, NATURE = 0, 1, 2
TERMINAL = -1

PLAYER_NAMES = {EXIST: "I", UNIV: "II", NATURE: "chance"}
DEFAULT_NODE_CAP = 10**6


@dataclass(frozen=True)
class InfoSet:
    """An information set of I or II: histories its owner cannot tell apart.

    ``label`` is the canonical identity used by the strategy pretty-printer:
    the occurrence path plus the assignment class (the bindings the player
    is allowed to see), or the declared label for hand-built games.
    """

    label: str
    members: tuple[int, ...]
    actions: tuple[str, ...]
    index: int


class ExtensiveGame:
    """Win-lose extensive game with imperfect information and chance moves.

    Only I and II have information sets: a node of theirs is added with its
    set's label (:meth:`add_node`), and chance sees the whole history.  A
    node of a semantic game carries its occurrence ``occ`` and, at a
    quantifier or chance quantifier, the variable it ``binds``; a node of a
    ``.game`` file carries neither, and its ``info_label`` is its declared
    label.  A chance node's ``info_label`` is the key that ``.nat`` rules
    name: its chance quantifier's variable, ``@occurrence`` for a
    chance-or, or its declared label.  Sets are ordered by ``info_order``
    of their first member, then by that member.  ``structure`` is the
    structure a sentence is played on, None for a ``.game`` file; the game
    never grows past ``node_cap`` nodes.
    """

    def __init__(self, structure: Structure | None = None,
                 node_cap: int = DEFAULT_NODE_CAP):
        self.structure = structure
        self.node_cap = node_cap
        self.parent: list[int] = []
        self.children: list[list[int]] = []
        # position of each node among its parent's children (-1 at the root)
        self.edge: list[int] = []
        self.move: list[str] = []
        self.owner: list[int] = []
        self.winner_of: list[int | None] = []
        self.binds: list[str | None] = []
        self.occ: list[OccurrenceId | None] = []
        self.info_label: list[str | None] = []
        self.info_order: list[int] = []
        # chance probabilities embedded in a .game file, per chance node
        self.embedded_chance: dict[int, tuple[Fraction, ...]] = {}
        # per player, each set label's members in node order
        self._filed: dict[int, dict[str, list[int]]] = {EXIST: {}, UNIV: {}}
        self._partitions: dict[int, tuple[InfoSet, ...]] = {}
        self._infoset: list[int] = []
        # strategy.own_histories's result, per player
        self.own_histories: dict[int, list] = {}

    # ---------------------------------------------------------- tree access

    def add_node(self, parent: int, move: str, owner: int,
                 binds: str | None = None, occ: OccurrenceId | None = None,
                 info_label: str | None = None, winner: int | None = None,
                 label: str | None = None, info_order: int = 0) -> int:
        """Add a node and return its id; one of I or II joins the set named
        ``label``.  Raises :class:`BudgetError` rather than pass ``node_cap``."""
        node = len(self.parent)
        if node == self.node_cap:
            raise BudgetError("game node", self.node_cap, self.node_cap + 1)
        self.parent.append(parent)
        self.children.append([])
        self.edge.append(len(self.children[parent]) if parent >= 0 else -1)
        self.move.append(move)
        self.owner.append(owner)
        self.winner_of.append(winner)
        self.binds.append(binds)
        self.occ.append(occ)
        self.info_label.append(info_label)
        self.info_order.append(info_order)
        if parent >= 0:
            self.children[parent].append(node)
        if owner in self._filed:
            self._filed[owner].setdefault(label, []).append(node)
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

    def bindings(self, node: int) -> tuple[tuple[str, str], ...]:
        """The quantifier moves along ``node``'s history, as (variable,
        element) pairs, first move first.  A variable bound twice appears
        twice, so ``dict(game.bindings(node))`` is the history's assignment,
        its later value masking the earlier one."""
        moves = []
        at = self.parent[node]
        while at >= 0:
            if self.binds[at] is not None:
                moves.append((self.binds[at], self.move[node]))
            node, at = at, self.parent[at]
        return tuple(reversed(moves))

    def variables(self) -> tuple[str, ...]:
        """Variables bound by quantifier moves anywhere in the game, in the
        order of the nodes that first bind them."""
        return tuple(dict.fromkeys(v for v in self.binds if v is not None))

    # -------------------------------------------------------- information

    def information_partition(self, player: int) -> tuple[InfoSet, ...]:
        """I's or II's information sets, as :meth:`add_node` filed them, in
        canonical order: the first member's order key, then that member.  A
        set's actions are its first member's; :meth:`validate` checks that
        the others share them."""
        if not self._partitions:
            self._infoset = [-1] * len(self)
            for p, by_label in self._filed.items():
                ordered = sorted(by_label.items(), key=lambda kv: (
                    self.info_order[kv[1][0]], kv[1][0]))
                for index, (_, members) in enumerate(ordered):
                    for m in members:
                        self._infoset[m] = index
                self._partitions[p] = tuple(
                    InfoSet(label, tuple(members), self.actions(members[0]), index)
                    for index, (label, members) in enumerate(ordered))
        return self._partitions[player]

    @property
    def infoset(self) -> list[int]:
        """Per node, the index of its information set in its owner's
        partition (-1 at terminals and at chance nodes)."""
        self.information_partition(EXIST)
        return self._infoset

    # -------------------------------------------------------------- checks

    def validate(self):
        """Raise on violations of the extensive-game definition clauses.

        The first three, that a set's members share their actions, that no
        member is a prefix of another and that chance labels are distinct,
        only a ``.game`` file can break: a semantic game's set members share
        an occurrence, so they lie at one depth with one action list,
        settling drops an action at every open member of a set at once, and
        a sentence's chance nodes declare no label."""
        for player in (EXIST, UNIV):
            for info in self.information_partition(player):
                if any(self.actions(m) != info.actions for m in info.members):
                    raise GameError(
                        f"information set {info.label} members have differing action sets"
                    )
                members = set(info.members)
                if any(not members.isdisjoint(self.ancestors(m)) for m in info.members):
                    raise GameError(
                        f"information set {info.label} contains a history and its prefix"
                    )
        declared: set[str] = set()
        for node in self.chance_nodes():
            if self.occ[node] is None and self.info_label[node] in declared:
                raise GameError(f"chance information set "
                                f"@{self.info_label[node]}[] is not a singleton")
            declared.add(self.info_label[node])
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


def build_semantic_game(m: Structure, phi: Formula,
                        node_cap: int = DEFAULT_NODE_CAP) -> ExtensiveGame:
    """Materialize the full game tree of ``phi`` on ``m``.

    Quantifier and chance-quantifier nodes branch once per universe element;
    connective nodes branch to their two child occurrences; play ends at
    literals, where the winner is decided by the literal's compiled truth
    test under the history's assignment, a dict carried down the build (a
    later binding of a variable masks an earlier one).  Every literal
    occurrence is compiled, in preorder, before any node is built, so an
    unsuitable structure is reported before the node cap can fire.  A
    player's node is added with its set's label, ``@occurrence[v=x,...]``
    over the bindings outside its slash set, and sets are ordered by their
    occurrence's place in preorder; each occurrence's label is formatted
    once, with that place.
    """
    fv = free_variables(phi)
    if fv:
        raise GameError(f"not a sentence: free variables {sorted(fv)}")
    game = ExtensiveGame(m, node_cap)
    occ_list = occurrences(phi)
    try:
        tests = {path: compile_literal(m, sub) for path, sub in occ_list
                 if isinstance(sub, Literal)}
    except StructureError as exc:
        raise GameError(f"structure not suitable: {exc}") from exc
    order = {path: (i, occurrence_label(path))
             for i, (path, _) in enumerate(occ_list)}

    stack: list[tuple[OccurrenceId, Formula, int, str, dict[str, str]]] = [
        ((), phi, -1, "", {})
    ]
    while stack:
        path, sub, parent, move, s = stack.pop()
        if isinstance(sub, Literal):
            winner = EXIST if tests[path](s) else UNIV
            game.add_node(parent, move, TERMINAL, occ=path, winner=winner)
            continue
        index, name = order[path]
        binds = sub.var if isinstance(sub, (Exists, Forall, ChanceQ)) else None
        if isinstance(sub, (ChanceOr, ChanceQ)):
            # the .nat key: the variable, or @occurrence for a chance-or
            key = sub.var if isinstance(sub, ChanceQ) else "@" + name
            node = game.add_node(parent, move, NATURE, binds, path, key)
        else:
            owner = EXIST if isinstance(sub, (Or, Exists)) else UNIV
            items = ",".join(f"{v}={x}" for v, x in sorted(s.items())
                             if v not in sub.slash)
            node = game.add_node(parent, move, owner, binds, path,
                                 label=f"@{name}[{items}]", info_order=index)
        if binds is None:
            # reversed so children expand left-to-right in preorder
            stack.append((path + (1,), sub.right, node, "R", s))
            stack.append((path + (0,), sub.left, node, "L", s))
        else:
            for el in reversed(m.universe):
                stack.append((path + (0,), sub.body, node, el, {**s, binds: el}))
    return game


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
