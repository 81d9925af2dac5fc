"""Concrete syntax: parsing, formatting, and the line-oriented file formats."""

from fractions import Fraction

import pytest

from ifgames import (
    App,
    ChainAtom,
    ChanceQ,
    Const,
    Exists,
    Forall,
    GameError,
    Literal,
    Or,
    ParseError,
    ProfileError,
    RelAtom,
    Var,
    build_semantic_game,
    format_formula,
    parse_extensive_game,
    parse_formula,
    parse_nature_strategy,
    parse_profile,
    parse_structure,
    uniform_nature,
)
from ifgames.corpus import corpus_text
from ifgames.errors import NatureStrategyError
from random_sentences import seeded_sentence


def test_parse_matching_pennies_shape():
    phi = parse_formula("forall x (exists y/{x}) x = y")
    assert phi == Forall("x", frozenset(), Exists(
        "y", frozenset({"x"}),
        Literal(ChainAtom((Var("x"), Var("y")), ("=",)))))


def test_parse_phi_sb_tree(phi_sb):
    assert isinstance(phi_sb, ChanceQ) and phi_sb.var == "x"
    inner = phi_sb.body
    assert isinstance(inner, ChanceQ) and inner.var == "t"
    disj = inner.body
    assert isinstance(disj, Or) and disj.slash == frozenset()
    assert disj.left == Literal(RelAtom("Awake", (Var("x"), Var("t"))),
                                positive=False)
    assert isinstance(disj.right, Or)
    assert disj.right.slash == frozenset({"x", "t"})


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("R(x) garbage")
    assert err.value.line == 1
    assert err.value.column == 6


def test_parse_rejects_long_chains():
    with pytest.raises(ParseError):
        parse_formula("x = y = z = w")


def test_negation_pushed_inward():
    phi = parse_formula("~ forall x exists y (R(x) /\\ x = y)")
    assert phi == Exists("x", frozenset(), Forall("y", frozenset(), Or(
        Literal(RelAtom("R", (Var("x"),)), positive=False),
        Literal(ChainAtom((Var("x"), Var("y")), ("!=",))),
        frozenset())))


def test_implication_desugared_at_parse(phi_mh):
    # no implication nodes anywhere: the tree is Or/And/quantifiers/literals
    from ifgames.formula import occurrences
    kinds = {type(node).__name__ for _, node in occurrences(phi_mh)}
    assert kinds == {"Forall", "Exists", "Or", "Literal"}


def test_canonical_phi_mh_format(phi_mh):
    expected = ("forall x (exists y/{x}) forall z "
                "(((z = x) \\/ (z = y)) \\/ (exists y/{x}) (x = y))")
    assert format_formula(phi_mh) == expected


def test_round_trip_all_corpus_formulas(corpus_formulas):
    for name, phi in corpus_formulas.items():
        assert parse_formula(format_formula(phi)) == phi, name


def test_name_after_a_keyword_is_the_variable():
    # the second "chance" is a term, so it binds nothing: top stays a constant
    phi = parse_formula("forall chance top = chance")
    assert phi == Forall("chance", frozenset(), Literal(
        ChainAtom((Const("top"), Var("chance")), ("=",))))


def test_keyword_as_variable_then_keyword():
    phi = parse_formula("forall chance chance x x = top")
    assert phi == Forall("chance", frozenset(), ChanceQ("x", Literal(
        ChainAtom((Var("x"), Const("top")), ("=",)))))


def test_slash_set_names_are_variables():
    phi = parse_formula("forall x exists y/{x,t} R(x, top)")
    assert phi == Forall("x", frozenset(), Exists(
        "y", frozenset({"x", "t"}),
        Literal(RelAtom("R", (Var("x"), Const("top"))))))


def test_function_arguments_classified():
    phi = parse_formula("forall x (x = c \\/{z} f(x) = d)")
    assert phi == Forall("x", frozenset(), Or(
        Literal(ChainAtom((Var("x"), Const("c")), ("=",))),
        Literal(ChainAtom((App("f", (Var("x"),)), Const("d")), ("=",))),
        frozenset({"z"})))


def test_slashed_name_stays_free():
    # q is listed in a slash set, so it is a variable, and nothing binds it
    phi = parse_formula("exists x/{q} x = q")
    assert phi == Exists("x", frozenset({"q"}), Literal(
        ChainAtom((Var("x"), Var("q")), ("=",))))
    with pytest.raises(GameError, match=r"not a sentence: free variables \['q'\]"):
        build_semantic_game(parse_structure("universe 0 1\n"), phi)


def test_round_trip_random_sentences():
    for seed in range(300):
        phi = parse_formula(seeded_sentence(seed)[0])
        assert parse_formula(format_formula(phi)) == phi, seed


def test_empty_slash_set_omitted():
    phi = Or(Literal(RelAtom("R", (Var("x"),))),
             Literal(RelAtom("S", (Var("x"),))), frozenset())
    assert "/{" not in format_formula(phi)
    slashed = Or(phi.left, phi.right, frozenset({"x"}))
    assert "\\/{x}" in format_formula(slashed)


def test_parse_structure_sb(sb_structure):
    assert sb_structure.universe == ("1", "2")
    assert sb_structure.relations["Awake"] == (
        2, frozenset({("1", "1"), ("2", "1"), ("2", "2")}))
    assert sb_structure.relations["Heads"] == (1, frozenset({("1",)}))


def test_parse_structure_errors():
    with pytest.raises(ParseError):
        parse_structure("universe 1 1")
    with pytest.raises(ParseError):
        parse_structure("universe 1 2 3\nrel R/2: (1,4)")
    with pytest.raises(ParseError):
        parse_structure("universe 1 2\nrel R/2: (1)")
    with pytest.raises(ParseError):
        parse_structure("rel R/1: (1)")


def test_parse_structure_constants_functions():
    m = parse_structure(
        "universe a b\nconst top = a\nfunc swap/1: (a) -> b ; (b) -> a")
    assert m.constants == {"top": "a"}
    assert m.functions["swap"] == (1, {("a",): "b", ("b",): "a"})


def test_nature_biased_coin(smp_game):
    lam = parse_nature_strategy("z : 0 -> 1/3, 1 -> 2/3", smp_game)
    for node in smp_game.chance_nodes():
        assert lam.distribution(node) == (Fraction(1, 3), Fraction(2, 3))


def test_nature_empty_file_is_uniform(sb_game):
    lam = parse_nature_strategy("", sb_game)
    uniform = uniform_nature(sb_game)
    for node in sb_game.chance_nodes():
        assert lam.distribution(node) == uniform.distribution(node)
        assert lam.distribution(node) == (Fraction(1, 2), Fraction(1, 2))


def test_nature_lambda_prime(sb_game):
    lam = parse_nature_strategy(corpus_text("sb_lambda_prime.nat"), sb_game)
    for node in sb_game.chance_nodes():
        s = sb_game.assignment[node].as_dict()
        if not s:
            assert lam.distribution(node) == (Fraction(1, 2), Fraction(1, 2))
        elif s["x"] == "1":
            assert lam.distribution(node) == (Fraction(1), Fraction(0))
        else:
            assert lam.distribution(node) == (Fraction(1, 2), Fraction(1, 2))


def test_nature_rule_errors(sb_game, smp_game):
    with pytest.raises(NatureStrategyError):
        parse_nature_strategy("z : 0 -> 1/3, 1 -> 1/3", smp_game)
    with pytest.raises(ParseError):
        parse_nature_strategy("z : 0 -> -1/3, 1 -> 4/3", smp_game)
    with pytest.raises(NatureStrategyError):
        # t guarded on a variable assigned later in the history
        parse_nature_strategy("x | t=1 : 1 -> 1, 2 -> 0", sb_game)


@pytest.mark.parametrize("mass", ["abc", "1/0"])
def test_profile_bad_mass(sb_game, mass):
    with pytest.raises(ProfileError, match=f"bad mass '{mass}'"):
        parse_profile(f"row {mass} {{ }}\n", sb_game)


def test_parse_fig1_game(fig1_game):
    assert len(fig1_game) == 49
    infos = {i.label for i in fig1_game.information_partition(0)}
    assert infos == {f"@{c}[]" for c in "abcdefg"}
    top = fig1_game.children[fig1_game.root]
    assert len(top) == 3


def test_game_infoset_action_mismatch():
    bad = """player=I info=r
  action=l player=II info=s
    action=1 win=I
    action=2 win=II
  action=r player=II info=s
    action=1 win=I
    action=3 win=II
"""
    with pytest.raises(ParseError) as err:
        parse_extensive_game(bad)
    assert "differing action sets" in str(err.value)


def test_game_chance_probabilities_must_sum():
    bad = """player=chance info=c
  action=h p=1/2 win=I
  action=t p=1/3 win=II
"""
    with pytest.raises(ParseError):
        parse_extensive_game(bad)


def test_game_node_under_terminal_rejected():
    bad = """player=I info=r
  action=l win=I
    action=x win=II
"""
    with pytest.raises(ParseError) as err:
        parse_extensive_game(bad)
    assert "unreachable" in str(err.value)


def test_game_chance_infosets_must_be_singletons():
    bad = """player=I info=r
  action=l player=chance info=c
    action=h p=1/2 win=I
    action=t p=1/2 win=II
  action=r player=chance info=c
    action=h p=1/2 win=II
    action=t p=1/2 win=I
"""
    with pytest.raises(ParseError) as err:
        parse_extensive_game(bad)
    assert "singleton" in str(err.value)


def test_single_terminal_game():
    game = parse_extensive_game("win=I")
    assert len(game) == 1
    assert game.is_terminal(game.root)
    assert game.winner_of[game.root] == 0
