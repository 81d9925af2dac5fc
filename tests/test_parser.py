"""Concrete syntax: parsing, formatting, and the line-oriented file formats."""

from fractions import Fraction

import pytest

from ifgames import (
    EXIST,
    App,
    BehavioralStrategy,
    BudgetError,
    ChainAtom,
    ChanceQ,
    Const,
    Exists,
    Forall,
    GameError,
    Literal,
    EventError,
    Or,
    ParseError,
    ProfileError,
    RelAtom,
    Var,
    build_semantic_game,
    enumerate_reduced,
    format_formula,
    parse_event,
    parse_extensive_game,
    parse_formula,
    parse_nature_strategy,
    parse_profile,
    parse_structure,
    solve,
    uniform_nature,
)
from ifgames.corpus import corpus_text
from ifgames.errors import NatureStrategyError
from ifgames.parser import load_game
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


def test_nested_function_terms_round_trip():
    phi = parse_formula("forall x R(f(g(x)))")
    assert phi == Forall("x", frozenset(), Literal(RelAtom(
        "R", (App("f", (App("g", (Var("x"),)),)),))))
    assert format_formula(phi) == "forall x (R(f(g(x))))"
    assert parse_formula(format_formula(phi)) == phi
    chain = parse_formula("forall x f(g(x), x) = x")
    assert parse_formula(format_formula(chain)) == chain


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


@pytest.mark.parametrize("text, message", [
    ("universe 1\nuniverse 2", "2:1: universe declared twice"),
    ("universe 1 1", "1:1: duplicate universe element"),
    ("universe 1\nrel R: (1)",
     "2:1: malformed rel line (want rel Name/k: (a,b) ...)"),
    ("universe 1\nrel R/1: (1)\nrel R/1: (1)", "3:1: relation R declared twice"),
    ("universe 1\nrel R/1: 1", "2:1: expected a tuple, found '1'"),
    ("universe 1 2\nrel R/2: (1)", "2:1: relation R/2 given a 1-tuple"),
    ("universe 1\nconst c 1",
     "2:1: malformed const line (want const name = element)"),
    ("universe 1 2\nconst c = 1\nconst c = 2", "3:1: constant c declared twice"),
    ("universe 1\nfunc f: (1) -> 1", "2:1: malformed func line"),
    ("universe 1\nfunc f/1: (1) -> 1\nfunc f/1: (1) -> 1",
     "3:1: function f declared twice"),
    ("universe 1\nfunc f/1: (1) 1",
     "2:1: malformed func entry (want (a,b) -> c)"),
    ("universe 1 2\nfunc f/1: (1) -> 1; (1) -> 2; (2) -> 2",
     "2:1: function f maps (1) twice"),
    ("universe 1 2\nconst c = 2\nfunc c/0: () -> 1",
     "3:1: c is both a constant and a 0-ary function"),
    ("universe 1 2\nfunc c/0: () -> 1\nconst c = 2",
     "3:1: c is both a constant and a 0-ary function"),
    ("universe 1\nfoo bar", "2:1: unknown declaration 'foo'"),
    ("rel R/1: (1)", "1:1: structure has no universe line"),
    ("", "1:1: structure has no universe line"),
    # the structure's own checks carry no position
    ("universe", "empty universe"),
    ("universe 1 2 3\nrel R/2: (1,4)", "relation R mentions unknown element '4'"),
    ("universe 1\nconst c = 2", "constant c names unknown element '2'"),
    ("universe 1\nfunc f/2: (1) -> 1", "function f/2 keyed by bad tuple"),
    ("universe 1\nfunc f/1: (2) -> 1", "function f mentions unknown element"),
    ("universe 1 2\nfunc f/1: (1) -> 1", "function f/1 is not total"),
])
def test_structure_diagnostics(text, message):
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert str(err.value) == message


def test_parse_structure_constants_functions():
    m = parse_structure(
        "universe a b\nconst top = a\nfunc swap/1: (a) -> b ; (b) -> a")
    assert m.constants == {"top": "a"}
    assert m.functions["swap"] == (1, {("a",): "b", ("b",): "a"})


def test_parse_structure_nullary_function():
    # ``()`` is the empty tuple in function tables, as in relations
    m = parse_structure("universe 1 2\nrel P/0: ()\nfunc c/0: () -> 1")
    assert m.relations["P"] == (0, frozenset({()}))
    assert m.functions["c"] == (0, {(): "1"})


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
        s = dict(sb_game.bindings(node))
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


@pytest.mark.parametrize("text, error, message", [
    ("z 0 -> 1", ParseError,
     "1:1: malformed rule (want var [| guard] : v -> p, ...)"),
    ("z | x : 0 -> 1", ParseError, "1:1: malformed guard 'x'"),
    ("z : 0 1", ParseError, "1:1: malformed mass entry '0 1'"),
    ("z : 0 -> 1/2, 0 -> 1/2", ParseError, "1:1: value 0 listed twice"),
    ("z : 0 -> x", ParseError, "1:1: bad probability 'x'"),
    ("z : 0 -> 1/0", ParseError, "1:1: bad probability '1/0'"),
    ("z : 0 -> -1, 1 -> 2", ParseError, "1:1: negative probability -1"),
    ("zz : 0 -> 1/3, 1 -> 2/3", NatureStrategyError,
     "rule at line 1 is keyed by 'zz', which names no chance point of the game"),
    ("# comment\n\nz : 0 -> 1 ; y : 0 -> 1", NatureStrategyError,
     "rule at line 3 is keyed by 'y', which names no chance point of the game"),
    ("z | q=1 : 0 -> 1", NatureStrategyError,
     "rule at line 1 tests q, which is not yet assigned at that decision point"),
    ("z : 2 -> 1", NatureStrategyError,
     "rule at line 1 mentions '2', not an available action at that decision "
     "point"),
    ("z : 0 -> 1/3, 1 -> 1/3", NatureStrategyError,
     "rule at line 1: probabilities do not sum to 1"),
])
def test_nature_rule_diagnostics(smp_game, text, error, message):
    with pytest.raises(error) as err:
        parse_nature_strategy(text, smp_game)
    assert str(err.value) == message


def test_nature_guard_matching_no_history_is_allowed(smp_game):
    lam = parse_nature_strategy("z | x=5 : 0 -> 1", smp_game)
    uniform = uniform_nature(smp_game)
    for node in smp_game.chance_nodes():
        assert lam.distribution(node) == uniform.distribution(node)


@pytest.mark.parametrize("source, structure, nature", [
    ("monty_hall.game", None, None),
    ("stochastic_matching_pennies.if", "binary.struct", None),
    ("stochastic_matching_pennies.if", "binary.struct", "biased_coin.nat"),
], ids=["game-file", "formula", "nat-file"])
def test_each_load_builds_one_chance_strategy(monkeypatch, source, structure, nature):
    # the uniform defaults are read as plain distributions, so the one
    # strategy load_game returns is the only one it builds and validates
    built, real = [], BehavioralStrategy.__init__

    def record(self, game, dists):
        built.append(game)
        real(self, game, dists)

    monkeypatch.setattr(BehavioralStrategy, "__init__", record)
    game, lam = load_game(corpus_text(source), structure and corpus_text(structure),
                          nature and corpus_text(nature))
    assert built == [game]
    assert lam.game is game


def test_nature_occurrence_key_on_chance_or(binary):
    game = build_semantic_game(binary,
                               parse_formula("forall x ((x = x) >< (x != x))"))
    lam = parse_nature_strategy("@/0 : L -> 1/3, R -> 2/3", game)
    for node in game.chance_nodes():
        assert lam.distribution(node) == (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(NatureStrategyError, match="keyed by '@/1'"):
        parse_nature_strategy("@/1 : L -> 1/3, R -> 2/3", game)


# each chance point of a chance quantifier over a chance-or over a chance
# quantifier has its own key: x, @/0, and z under a guard on x; a point
# whose rules are dropped is uniform
_NESTED_CHANCE_RULES = {
    "x": ["x : 1 -> 1/3, 2 -> 2/3"],
    "@/0": ["@/0 : L -> 1/4, R -> 3/4"],
    "z": ["z | x=1 : 1 -> 1", "z | x=2 : 1 -> 1/2, 2 -> 1/2"],
}


@pytest.mark.parametrize("dropped, value", [
    (None, Fraction(7, 12)), ("x", Fraction(11, 16)),
    ("@/0", Fraction(1, 2)), ("z", Fraction(11, 24))])
def test_nature_keys_of_nested_chance_points(dropped, value):
    rules = [rule for key, lines in _NESTED_CHANCE_RULES.items()
             if key != dropped for rule in lines]
    game, lam = load_game("chance x (x = 1 >< chance z (z = x))",
                          "universe 1 2", "\n".join(rules))
    assert solve(game, lam).value == value


TWO_LEVEL_GAME = """\
player=I info=a
  action=l player=II info=b
    action=x win=I
    action=y win=II
  action=r player=I info=c
    action=u win=I
    action=v win=II
"""


@pytest.mark.parametrize("text, message", [
    ("junk row 1 { @a[] -> l }", "unexpected text 'junk'"),
    ("row 1 { @a[] -> l } junk", "unexpected text 'junk'"),
    ("row 1 { @a[] l }", "malformed strategy line '@a[] l'"),
    ("row 1 { @z[] -> l }", "unknown information set '@z[]'"),
    ("row 1 { @a[] -> q }", "unknown action 'q' at @a[]"),
    ("row 1 { @a[] -> l\n @a[] -> l }", "information set @a[] listed twice"),
    ("row 1 { @a[] -> r }", "strategy line missing for reachable set @c[]"),
    ("row 1 { @a[] -> l\n @c[] -> u }",
     "lines for unreachable information sets ['@c[]']"),
    ("col 1 { @b[] -> x }",
     "profile gives no row strategies but that player has decision points"),
    ("row 1 { @a[] -> l }",
     "profile gives no col strategies but that player has decision points"),
    ("row 1 { @a[] -> l }\ncol 1 { @a[] -> l }", "unknown information set '@a[]'"),
    ("row 1/2 { @a[] -> l }\ncol 1 { @b[] -> x }", "row masses sum to 1/2, not 1"),
])
def test_profile_diagnostics(text, message):
    game = parse_extensive_game(TWO_LEVEL_GAME)
    parse_profile("row 1 { @a[] -> l }\ncol 1 { @b[] -> x }", game)
    with pytest.raises(ProfileError) as err:
        parse_profile(text, game)
    assert str(err.value) == message


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


def test_game_file_node_cap():
    # monty_hall.game has 49 nodes; the cap is checked as each one is added
    text = corpus_text("monty_hall.game")
    assert len(parse_extensive_game(text, node_cap=49)) == 49
    with pytest.raises(BudgetError) as err:
        parse_extensive_game(text, node_cap=48)
    assert str(err.value) == "game node budget exceeded: limit 48, reached 49"
    with pytest.raises(BudgetError):
        load_game(text, None, node_cap=48)


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


@pytest.mark.parametrize("text, message", [
    (" win=I", "1:1: indentation must be a multiple of two spaces"),
    ("player=I info=r garbage", "1:1: malformed field 'garbage'"),
    ("win=I win=II", "1:1: field win repeated"),
    ("win=I\nwin=II", "2:1: multiple root nodes"),
    ("action=a win=I", "1:1: root cannot carry an action"),
    ("player=I info=r\n    action=a win=I",
     "2:1: node has no parent at the previous depth"),
    ("win=I\n  action=a win=II", "2:1: unreachable node declared under a terminal"),
    ("player=I info=r\n  win=I", "2:1: non-root node needs action="),
    ("win=III", "1:1: win must be I or II"),
    ("win=I player=I", "1:1: terminal lines carry only action/win/p"),
    ("info=r", "1:1: internal node needs player="),
    ("player=III info=r", "1:1: player must be I, II or chance"),
    ("player=I", "1:1: internal node needs info="),
    ("player=chance info=c\n  action=h win=I", "2:1: children of chance nodes need p="),
    ("win=I colour=red", "1:1: unknown fields ['colour']"),
    ("", "1:1: empty game file"),
    ("# a comment only", "1:1: empty game file"),
    ("player=chance info=c\n  action=h p=x win=I", "2:1: bad probability 'x'"),
    ("player=chance info=c\n  action=h p=-1 win=I\n  action=t p=2 win=II",
     "2:1: negative probability -1"),
    # the game's own checks carry no position
    ("player=I info=r", "nonterminal history 0 has no actions"),
    ("player=chance info=c\n  action=h p=1/2 win=I\n  action=t p=1/3 win=II",
     "chance probabilities at node 0 do not sum to 1"),
    ("player=I info=r\n  action=a player=I info=r\n    action=a win=I\n"
     "    action=b win=II\n  action=b win=I",
     "information set @r[] contains a history and its prefix"),
    ("player=I info=r\n  action=l player=chance info=c\n    action=h p=1 win=I\n"
     "  action=r player=chance info=c\n    action=h p=1 win=II",
     "chance information set @c[] is not a singleton"),
])
def test_game_diagnostics(text, message):
    with pytest.raises(ParseError) as err:
        parse_extensive_game(text)
    assert str(err.value) == message


def test_game_diagnostic_from_the_strategy_tables():
    # set b's first member comes before set c, but its second one lies
    # below c: the file parses, and the strategy tables refuse it
    game = parse_extensive_game("""player=I info=a
  action=l player=I info=b
    action=x win=I
    action=y win=II
  action=r player=I info=c
    action=x player=I info=b
      action=x win=I
      action=y win=II
    action=y win=II
""")
    with pytest.raises(GameError) as err:
        enumerate_reduced(game, EXIST)
    assert str(err.value) == ("information structure not supported: a decision "
                              "point depends on a later information set")


def test_single_terminal_game():
    game = parse_extensive_game("win=I")
    assert len(game) == 1
    assert game.is_terminal(game.root)
    assert game.winner_of[game.root] == 0


# ------------------------------------------------------------------ events

def _holding(game, text):
    event = parse_event(text, game)
    return {t for t in game.terminals() if event.holds(game, t)}


def _values_of(game, t, var):
    """Every value bound to ``var`` along ``t``'s history, in order."""
    return tuple(x for v, x in game.bindings(t) if v == var)


def test_event_missing_binding_semantics(mh_prime_chance_game):
    # only plays that reach the second (exists y/{x}) bind y twice
    game = mh_prime_chance_game
    terminals = set(game.terminals())
    values = {t: {v: _values_of(game, t, v) for v in "xyz"} for t in terminals}
    assert all(len(values[t]["z"]) == 1 for t in terminals)
    twice = {t for t in terminals if len(values[t]["y"]) == 2}
    y2_is_1 = {t for t in twice if values[t]["y"][1] == "1"}
    z_is_1 = {t for t in terminals if values[t]["z"] == ("1",)}
    assert y2_is_1 and z_is_1 - twice and terminals - twice
    # events evaluate left to right: a missing binding fails the event
    # unless an or/and was already decided by its left side
    assert _holding(game, "y#2 = 1") == y2_is_1
    assert _holding(game, "z = 1 or y#2 = 1") == z_is_1 | y2_is_1
    assert _holding(game, "y#2 = 1 or z = 1") == y2_is_1 | (z_is_1 & twice)
    assert _holding(game, "not y#2 = 1") == twice - y2_is_1
    assert _holding(game, "z != 1 and y#2 = 1") == y2_is_1 - z_is_1
    assert _holding(game, "y#last = y") == {t for t in terminals if values[t]["y"]}
    assert _holding(game, "y#1 = y#last") == terminals - twice | {
        t for t in twice if values[t]["y"][0] == values[t]["y"][1]}


def test_event_chains_have_no_length_cap(mh_prime_chance_game):
    game = mh_prime_chance_game

    def last(t, v):
        return _values_of(game, t, v)[-1]

    assert _holding(game, "x != y != z != x") == {
        t for t in game.terminals()
        if last(t, "x") != last(t, "y") != last(t, "z") != last(t, "x")}
    assert _holding(game, "x = y = z = 1 = x") == {
        t for t in game.terminals()
        if last(t, "x") == last(t, "y") == last(t, "z") == "1"}


def test_event_relations_and_parentheses(sb_game):
    assignment = {t: dict(sb_game.bindings(t)) for t in sb_game.terminals()}
    awake = {t for t, s in assignment.items()
             if (s.get("x"), s.get("t")) in sb_game.structure.relations["Awake"][1]}
    assert awake
    assert _holding(sb_game, "Awake(x,t)") == awake
    assert _holding(sb_game, "not Awake(x,t)") == set(sb_game.terminals()) - awake
    assert _holding(sb_game, "(Awake(x,t))") == awake
    assert _holding(sb_game, "t#2 = 1 or Awake(x,t)") == set()


@pytest.mark.parametrize("text, error, message", [
    ("", ParseError, "expected a term"),
    ("x", ParseError, "expected a comparison"),
    ("x = 1 y", ParseError, "trailing input"),
    ("(x = 1", ParseError, "')'"),
    ("1#2 = x", ParseError, "only variables take #indices"),
    ("x#0 = 1", ParseError, "positive number or 'last'"),
    ("x#first = 1", ParseError, "positive number or 'last'"),
    ("q#1 = 1", EventError, "q is not a game variable"),
    ("x = 9", EventError, "'9' is neither a game variable"),
    ("Asleep(x,t)", EventError, "unknown relation Asleep"),
    ("Awake(x)", EventError, "relation Awake expects 2 arguments"),
])
def test_event_errors(sb_game, text, error, message):
    with pytest.raises(error) as err:
        parse_event(text, sb_game)
    assert message in str(err.value)


def test_event_names_the_end_of_input(sb_game):
    # as the formula parser does at the same place
    with pytest.raises(ParseError) as err:
        parse_event("x = ", sb_game)
    assert str(err.value) == "1:5: expected a term, found 'end of input'"
    with pytest.raises(ParseError) as err:
        parse_formula("forall x (x = ")
    assert str(err.value) == "1:15: expected a term, found 'end of input'"


def test_event_names_no_element_on_a_game_input(fig1_game):
    for text in ("x = 1", "1 = 1", "R(1)"):
        with pytest.raises(EventError):
            parse_event(text, fig1_game)


def test_event_predicate_keeps_stripped_text(sb_game):
    event = parse_event("  Awake(x,t)\n", sb_game)
    assert event.text == "Awake(x,t)"
    assert repr(event) == "EventPredicate('Awake(x,t)')"
