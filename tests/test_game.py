"""Semantic game construction, information partitions, winners, DOT export."""

import re

import pytest

from ifgames import (
    EXIST,
    UNIV,
    BudgetError,
    GameError,
    Structure,
    build_semantic_game,
    export_dot,
    parse_formula,
)
from ifgames import solver
from ifgames.corpus import CORPUS, corpus_text
from ifgames.formula import (
    And,
    ChanceOr,
    ChanceQ,
    Exists,
    Forall,
    Literal,
    Or,
    occurrences,
)
from ifgames.parser import load_game
from ifgames.strategy import own_histories
from random_sentences import random_game, seeded_sentence


@pytest.fixture(scope="module")
def mp_game():
    m = Structure(("1", "2"))
    return build_semantic_game(m, parse_formula("forall x (exists y/{x}) x = y"))


def test_rejects_open_formulas_and_unsuitable_structures(sb_structure):
    with pytest.raises(GameError):
        build_semantic_game(Structure(("1",)), parse_formula("(exists y/{x}) x = y"))
    with pytest.raises(GameError):
        build_semantic_game(Structure(("1", "2")),
                            parse_formula("forall x R(x)"))
    # the first symbol in preorder is the one named
    with pytest.raises(GameError) as err:
        build_semantic_game(Structure(("1", "2")),
                            parse_formula("forall x (R(x) \\/ S(x))"))
    assert str(err.value) == "structure not suitable: relation R uninterpreted"


def test_node_cap(doors3, phi_mh):
    with pytest.raises(BudgetError) as err:
        build_semantic_game(doors3, phi_mh, node_cap=10)
    # the cap is checked at every node added, so it fires at the first one past it
    assert (err.value.limit, err.value.reached) == (10, 11)


def test_matching_pennies_terminals(mp_game):
    terminals = mp_game.terminals()
    assert len(terminals) == 4
    wins = [t for t in terminals if mp_game.winner_of[t] == EXIST]
    # Eloise wins exactly the two histories with matching values
    assert len(wins) == 2
    for t in wins:
        s = dict(mp_game.bindings(t))
        assert s["x"] == s["y"]


def test_winner_rejects_nonterminal(mp_game):
    # only a terminal history has a winner
    assert not mp_game.is_terminal(mp_game.root)
    assert mp_game.winner_of[mp_game.root] is None
    assert all(mp_game.winner_of[t] in (EXIST, UNIV)
               for t in mp_game.terminals())


def test_matching_pennies_partition(mp_game):
    exist = mp_game.information_partition(EXIST)
    assert len(exist) == 1
    assert len(exist[0].members) == 2
    assert exist[0].actions == ("1", "2")
    univ = mp_game.information_partition(UNIV)
    assert len(univ) == 1 and univ[0].members == (0,)


def test_sb_game_shape(sb_game):
    # 2x2 chance prefixes; after (x=1, t=2) the left disjunct wins for Eloise
    assert len(sb_game) == 23
    chance = sb_game.chance_nodes()
    assert len(chance) == 3  # root and the two day choices
    node = sb_game.root
    node = sb_game.children[node][0]  # x := 1
    node = sb_game.children[node][1]  # t := 2
    left = sb_game.children[node][0]
    assert sb_game.is_terminal(left)
    assert sb_game.winner_of[left] == EXIST


def test_sb_slashed_disjunction_one_infoset(sb_game):
    exist = sb_game.information_partition(EXIST)
    slashed = [i for i in exist if len(i.members) == 4]
    assert len(slashed) == 1
    assert slashed[0].actions == ("L", "R")
    unslashed = [i for i in exist if len(i.members) == 1]
    assert len(unslashed) == 4  # the outer disjunction sees both chance moves


def test_phi_mh_fanout_and_size(mh_game, phi_mh, doors3):
    # recompute the node count from the branching recurrence
    n = len(doors3.universe)

    def count(phi):
        if isinstance(phi, Literal):
            return 1
        if isinstance(phi, (Or, And, ChanceOr)):
            return 1 + count(phi.left) + count(phi.right)
        return 1 + n * count(phi.body)

    assert len(mh_game) == count(phi_mh) == 229
    # quantifier fanout 3 at x, y, z and at the second exists-y
    node = mh_game.root
    for _ in ("x", "y", "z"):
        assert len(mh_game.children[node]) == 3
        node = mh_game.children[node][0]
    disj = node
    second_exists = mh_game.children[disj][1]
    assert len(mh_game.children[second_exists]) == 3


def test_prefix_closure(sb_game, mh_game):
    for game in (sb_game, mh_game):
        for node in range(len(game)):
            parent = game.parent[node]
            assert parent == -1 or parent < len(game)


def test_assignment_recursion(mh_game, phi_mh):
    # recomputing s_h move by move, from the subformula each move leaves,
    # matches the bindings read off the tree, on Monty Hall and 200 seeds
    games = [(mh_game, phi_mh)] + [
        (random_game(seed), parse_formula(seeded_sentence(seed)[0]))
        for seed in range(200)]
    for game, phi in games:
        subformula = dict(occurrences(phi))
        for node in range(len(game)):
            moves, s = [], {}
            for at in (game.ancestors(node) + [node])[1:]:
                sub = subformula[game.occ[game.parent[at]]]
                if isinstance(sub, (Exists, Forall, ChanceQ)):
                    moves.append((sub.var, game.move[at]))
                    s[sub.var] = game.move[at]
            assert game.bindings(node) == tuple(moves)
            assert dict(game.bindings(node)) == s


def _indistinguishable(game, a, b, slash):
    sa, sb = dict(game.bindings(a)), dict(game.bindings(b))
    assert sa.keys() == sb.keys()
    return {v for v in sa if sa[v] != sb[v]} <= slash


def test_partition_matches_pairwise_relation(sb_game, phi_sb, mh_prime_game,
                                              phi_mh_prime):
    for game, phi in ((sb_game, phi_sb), (mh_prime_game, phi_mh_prime)):
        subformula = dict(occurrences(phi))
        for player in (EXIST, UNIV):
            partition = game.information_partition(player)
            label_of = {}
            for info in partition:
                for m in info.members:
                    label_of[m] = info.index
            by_occ = {}
            for node in game.nonterminals(player):
                by_occ.setdefault(game.occ[node], []).append(node)
            for occ, nodes in by_occ.items():
                sub = subformula[occ]
                slash = getattr(sub, "slash", frozenset())
                for a in nodes:
                    for b in nodes:
                        same = label_of[a] == label_of[b]
                        assert same == _indistinguishable(game, a, b, slash)


_CORPUS_GAMES = sorted({(e.game or e.formula, c.structure, c.nature)
                        for e in CORPUS for c in e.checks}, key=str)


def test_infoset_members_share_actions(mh_game, sb_game, fig1_game):
    """Semantic games and their settled copies meet the set checks of
    ``validate`` by construction, so they skip them: every game of the
    corpus and of seeds 0-399, and the copy each settling pass returns,
    passes ``validate`` and gives I's and II's own histories."""
    for game in (mh_game, sb_game, fig1_game):
        for player in (EXIST, UNIV):
            for info in game.information_partition(player):
                assert len({game.actions(m) for m in info.members}) == 1
    loaded = [load_game(corpus_text(source), structure and corpus_text(structure),
                        nature and corpus_text(nature))
              for source, structure, nature in _CORPUS_GAMES]
    loaded += [load_game(*seeded_sentence(seed), None) for seed in range(400)]
    for game, lam in loaded:
        for g, _, _ in solver._settled(game, lam)[2]:
            g.validate()
            for player in (EXIST, UNIV):
                assert len(own_histories(g, player)) == len(g)


def test_chance_nodes_have_no_information_set(sb_game, mh_chance_game):
    # chance sees the whole history: only I and II have information sets
    for game in (sb_game, mh_chance_game):
        chance = game.chance_nodes()
        assert chance
        assert all(game.infoset[node] == -1 for node in chance)
        for player in (EXIST, UNIV):
            for info in game.information_partition(player):
                assert set(info.members).isdisjoint(chance)


def test_slash_free_same_infoset_same_assignment(sb_structure):
    phi = parse_formula("forall x exists t Awake(x,t)")
    game = build_semantic_game(sb_structure, phi)
    for player in (EXIST, UNIV):
        for info in game.information_partition(player):
            dicts = {tuple(sorted(dict(game.bindings(m)).items()))
                     for m in info.members}
            assert len(dicts) == 1


def test_terminal_iff_literal(mh_game, phi_mh):
    subformula = dict(occurrences(phi_mh))
    for node in range(len(mh_game)):
        is_lit = isinstance(subformula[mh_game.occ[node]], Literal)
        assert mh_game.is_terminal(node) == is_lit


def test_variables_in_first_binding_order(mh_prime_chance_game, sb_game,
                                          fig1_game):
    # the reference reads every node's whole binding tuple
    games = [mh_prime_chance_game, sb_game, fig1_game]
    for game in games + [random_game(seed) for seed in range(200)]:
        seen = {}
        for node in range(len(game)):
            for var, _ in game.bindings(node):
                seen.setdefault(var)
        assert game.variables() == tuple(seen)


def test_game_file_binds_nothing(fig1_game):
    # a .game file has no quantifier moves: no node binds a variable
    assert all(fig1_game.bindings(n) == () for n in range(len(fig1_game)))
    assert fig1_game.variables() == ()


def _dot_node_count(dot):
    return len(re.findall(r"^  n\d+ \[", dot, flags=re.M))


def test_export_dot_matching_pennies(mp_game):
    dot = export_dot(mp_game)
    assert _dot_node_count(dot) == 7
    assert dot.count("style=dotted") == 1  # one two-member cluster, one link


def test_export_dot_single_literal():
    single = build_semantic_game(
        Structure(("1",), relations={"T": (1, frozenset({("1",)}))}),
        parse_formula("T(1)"))
    assert _dot_node_count(export_dot(single)) == 1


def test_export_dot_sb_gray_terminal(sb_game):
    dot = export_dot(sb_game)
    # the (Heads, Tuesday) vacuous-waking terminal is an Eloise win, grayed
    node = sb_game.children[sb_game.children[sb_game.root][0]][1]
    left = sb_game.children[node][0]
    assert re.search(rf"n{left} \[shape=point.*fillcolor", dot)
    # the slashed disjunction's four histories form one dotted chain
    assert dot.count("style=dotted") == 3
