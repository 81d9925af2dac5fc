"""Structures, assignments, literal compilation, suitability."""

import itertools

import pytest

from ifgames import (
    Assignment,
    ChainAtom,
    Const,
    Literal,
    RelAtom,
    Structure,
    StructureError,
    Var,
    compile_literal,
    negate,
    occurrences,
    parse_formula,
)
from ifgames.errors import EvaluationError


def truth(m, s, lit):
    return compile_literal(m, lit)(s)


def diagnostic(m, phi):
    """The first diagnostic of ``phi``'s literals compiled in preorder, as a
    game build reads them, or True when every literal compiles."""
    try:
        for _, sub in occurrences(phi):
            if isinstance(sub, Literal):
                compile_literal(m, sub)
    except StructureError as exc:
        return str(exc)
    return True


def assign(**bindings):
    s = Assignment.empty()
    for var, val in bindings.items():
        s = s.extend(var, val)
    return s


def chain(*terms, rels):
    return Literal(ChainAtom(tuple(Var(t) for t in terms), rels))


def test_structure_validation():
    with pytest.raises(StructureError):
        Structure(("1", "1"))
    with pytest.raises(StructureError):
        Structure(("1", "2"), relations={"R": (1, frozenset({("3",)}))})
    with pytest.raises(StructureError):
        Structure(("1", "2"), relations={"R": (2, frozenset({("1",)}))})
    with pytest.raises(StructureError):
        Structure(("1", "2"), constants={"c": "9"})
    with pytest.raises(StructureError):
        Structure(("1", "2"), functions={"f": (1, {("1",): "1"})})


def test_assignment_masking_and_history():
    s = assign(x="1").extend("y", "2").extend("y", "3")
    assert s.value("y") == "3"
    assert s.values_of("y") == ("2", "3")
    assert s.domain() == {"x", "y"}
    assert s.bindings() == (("x", "1"), ("y", "2"), ("y", "3"))


def test_eval_awake_literal(sb_structure):
    lit = Literal(RelAtom("Awake", (Var("x"), Var("t"))))
    assert truth(sb_structure, assign(x="1", t="2"), lit) is False
    assert truth(sb_structure, assign(x="2", t="2"), lit) is True


def test_eval_chain_identity():
    m = Structure(("1", "2", "3"))
    lit = chain("x", "y", "z", rels=("=", "="))
    assert truth(m, assign(x="1", y="1", z="1"), lit) is True
    assert truth(m, assign(x="1", y="1", z="2"), lit) is False


def test_eval_mixed_chain_by_hand():
    # z = x != y under {x:1, y:2, z:1}: both constraints hold
    m = Structure(("1", "2", "3"))
    lit = chain("z", "x", "y", rels=("=", "!="))
    assert truth(m, assign(x="1", y="2", z="1"), lit) is True
    assert truth(m, assign(x="1", y="2", z="2"), lit) is False


def test_eval_errors():
    m = Structure(("1", "2"))
    with pytest.raises(EvaluationError):
        truth(m, assign(), Literal(ChainAtom((Var("x"), Const("1")), ("=",))))
    # an uninterpreted symbol is refused when the literal is compiled
    with pytest.raises(StructureError) as err:
        compile_literal(m, Literal(RelAtom("R", (Var("x"),))))
    assert str(err.value) == "relation R uninterpreted"


def test_constants_and_functions():
    m = Structure(("1", "2"), constants={"c": "2"},
                  functions={"f": (1, {("1",): "2", ("2",): "1"})})
    lit = parse_formula("forall x (f(x) != x)").body
    assert truth(m, assign(x="1"), lit) is True
    assert truth(m, assign(x="2"), lit) is True
    assert truth(m, assign(x="2"), parse_formula("forall x (x = c)").body) is True


def test_element_is_the_bare_name_rule():
    m = Structure(("1", "2", "a"), constants={"c": "2", "a": "1"},
                  functions={"k": (0, {(): "a"})})
    assert m.element("c") == "2"
    assert m.element("a") == "1"  # a constant masks the element it is named like
    assert m.element("k") == "a"  # a 0-ary function names its value
    assert m.element("2") == "2"
    assert m.element("9") is None and m.element("f") is None
    lit = parse_formula("exists y (y = k)").body
    assert truth(m, assign(y="a"), lit) is True
    assert truth(m, assign(y="1"), lit) is False


def test_literal_flip_exhaustive():
    # negation flips evaluation for every literal kind over all assignments
    m = Structure(("1", "2", "3"), relations={"R": (2, frozenset({("1", "2"), ("3", "3")}))})
    lits = [
        Literal(RelAtom("R", (Var("x"), Var("y")))),
        chain("x", "y", rels=("=",)),
        chain("x", "z", rels=("!=",)),
        chain("x", "y", "z", rels=("=", "=")),
        chain("z", "x", "y", rels=("=", "!=")),
    ]
    for lit in lits:
        for vals in itertools.product(m.universe, repeat=3):
            s = assign(x=vals[0], y=vals[1], z=vals[2])
            assert truth(m, s, negate(lit)) == (not truth(m, s, lit))


def test_chain_equals_conjunction_of_pairs():
    m = Structure(("1", "2"))
    three = chain("x", "y", "z", rels=("=", "="))
    for vals in itertools.product(m.universe, repeat=3):
        s = assign(x=vals[0], y=vals[1], z=vals[2])
        expected = (vals[0] == vals[1]) and (vals[1] == vals[2])
        assert truth(m, s, three) == expected


def test_eval_depends_only_on_free_variables(sb_structure):
    lit = Literal(RelAtom("Heads", (Var("x"),)))
    base = truth(sb_structure, assign(x="1"), lit)
    assert truth(sb_structure, assign(x="1", t="2", z="2"), lit) == base


def test_suitable(sb_structure, phi_sb, phi_mh, doors3):
    assert diagnostic(sb_structure, phi_sb) is True
    assert diagnostic(doors3, phi_mh) is True  # equality only
    diag = diagnostic(doors3, phi_sb)
    assert isinstance(diag, str) and "Awake" in diag


def test_suitable_arity_mismatch(sb_structure):
    phi = parse_formula("forall x Awake(x)")
    diag = diagnostic(sb_structure, phi)
    assert isinstance(diag, str) and "arity" in diag


@pytest.mark.parametrize("text, expected", [
    ("forall x R(f(f(x)))", True),
    ("forall x R(f(g(x)))", "function g uninterpreted"),
    ("forall x R(f(x, x))", "function f arity mismatch"),
    ("forall x f(f(c)) = x", "constant c uninterpreted"),
])
def test_suitable_nested_function_terms(text, expected):
    m = Structure(("1", "2"), relations={"R": (1, frozenset({("1",)}))},
                  functions={"f": (1, {("1",): "2", ("2",): "1"})})
    assert diagnostic(m, parse_formula(text)) == expected
