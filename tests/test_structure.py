"""Structures, assignments, literal evaluation, suitability."""

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
    eval_literal,
    negate,
    parse_formula,
    suitable,
)
from ifgames.errors import EvaluationError


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
    assert eval_literal(sb_structure, assign(x="1", t="2"), lit) is False
    assert eval_literal(sb_structure, assign(x="2", t="2"), lit) is True


def test_eval_chain_identity():
    m = Structure(("1", "2", "3"))
    lit = chain("x", "y", "z", rels=("=", "="))
    assert eval_literal(m, assign(x="1", y="1", z="1"), lit) is True
    assert eval_literal(m, assign(x="1", y="1", z="2"), lit) is False


def test_eval_mixed_chain_by_hand():
    # z = x != y under {x:1, y:2, z:1}: both constraints hold
    m = Structure(("1", "2", "3"))
    lit = chain("z", "x", "y", rels=("=", "!="))
    assert eval_literal(m, assign(x="1", y="2", z="1"), lit) is True
    assert eval_literal(m, assign(x="1", y="2", z="2"), lit) is False


def test_eval_errors():
    m = Structure(("1", "2"))
    with pytest.raises(EvaluationError):
        eval_literal(m, assign(), Literal(ChainAtom((Var("x"), Const("1")), ("=",))))
    with pytest.raises(EvaluationError):
        eval_literal(m, assign(x="1"), Literal(RelAtom("R", (Var("x"),))))


def test_constants_and_functions():
    m = Structure(("1", "2"), constants={"c": "2"},
                  functions={"f": (1, {("1",): "2", ("2",): "1"})})
    lit = parse_formula("forall x (f(x) != x)").body
    assert eval_literal(m, assign(x="1"), lit) is True
    assert eval_literal(m, assign(x="2"), lit) is True
    assert eval_literal(m, assign(x="2"), parse_formula("forall x (x = c)").body) is True


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
            assert eval_literal(m, s, negate(lit)) == (not eval_literal(m, s, lit))


def test_chain_equals_conjunction_of_pairs():
    m = Structure(("1", "2"))
    three = chain("x", "y", "z", rels=("=", "="))
    for vals in itertools.product(m.universe, repeat=3):
        s = assign(x=vals[0], y=vals[1], z=vals[2])
        expected = (vals[0] == vals[1]) and (vals[1] == vals[2])
        assert eval_literal(m, s, three) == expected


def test_eval_depends_only_on_free_variables(sb_structure):
    lit = Literal(RelAtom("Heads", (Var("x"),)))
    base = eval_literal(sb_structure, assign(x="1"), lit)
    assert eval_literal(sb_structure, assign(x="1", t="2", z="2"), lit) == base


def test_suitable(sb_structure, phi_sb, phi_mh, doors3):
    assert suitable(sb_structure, phi_sb) is True
    assert suitable(doors3, phi_mh) is True  # equality only
    diag = suitable(doors3, phi_sb)
    assert isinstance(diag, str) and "Awake" in diag


def test_suitable_arity_mismatch(sb_structure):
    phi = parse_formula("forall x Awake(x)")
    diag = suitable(sb_structure, phi)
    assert isinstance(diag, str) and "arity" in diag


@pytest.mark.parametrize("text, diagnostic", [
    ("forall x R(f(f(x)))", True),
    ("forall x R(f(g(x)))", "function g uninterpreted"),
    ("forall x R(f(x, x))", "function f arity mismatch"),
    ("forall x f(f(c)) = x", "constant c uninterpreted"),
])
def test_suitable_nested_function_terms(text, diagnostic):
    m = Structure(("1", "2"), relations={"R": (1, frozenset({("1",)}))},
                  functions={"f": (1, {("1",): "2", ("2",): "1"})})
    assert suitable(m, parse_formula(text)) == diagnostic
