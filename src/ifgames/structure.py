"""Finite first-order structures and the literal compiler.

A structure interprets relation, constant and function symbols over a finite
universe of named elements.  Universe elements are plain strings; numerals
like ``1`` are element names, not integers.  Equality is built in and never a
declared relation.  A bare name denotes a constant's or a 0-ary function's
value, else the element of that name (:meth:`Structure.element`).

:func:`compile_literal` resolves a literal's symbols in a structure once and
returns its Tarskian truth test of an assignment, a dict from variables to
elements; the conditioning events of ``parser.parse_event`` are built from
the same two tests, over a history's tuple of (variable, element) moves.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from .errors import EvaluationError, StructureError
from .formula import EQ, Const, Literal, RelAtom, Term, Var

# a compiled term's value and a compiled test, read off a history: a
# literal's from its assignment, an event's from its tuple of moves
Value = Callable[[Any], str]
Test = Callable[[Any], bool]


@dataclass
class Structure:
    universe: tuple[str, ...]
    # name -> (arity, set of element tuples)
    relations: dict[str, tuple[int, frozenset[tuple[str, ...]]]] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)
    # name -> (arity, total map from element tuples to elements)
    functions: dict[str, tuple[int, dict[tuple[str, ...], str]]] = field(default_factory=dict)

    def __post_init__(self):
        # every name a bare term may denote, mapped to the element it denotes
        names: dict[str, str] = {}
        for el in self.universe:
            if el in names:
                raise StructureError(f"duplicate universe element {el!r}")
            names[el] = el
        if not self.universe:
            raise StructureError("empty universe")
        for name, (arity, tuples) in self.relations.items():
            for tup in tuples:
                if len(tup) != arity:
                    raise StructureError(
                        f"relation {name}/{arity} holds a tuple of length {len(tup)}"
                    )
                for el in tup:
                    if el not in names:
                        raise StructureError(
                            f"relation {name} mentions unknown element {el!r}"
                        )
        for name, el in self.constants.items():
            if el not in names:
                raise StructureError(f"constant {name} names unknown element {el!r}")
        for name, (arity, table) in self.functions.items():
            for tup, val in table.items():
                if len(tup) != arity:
                    raise StructureError(f"function {name}/{arity} keyed by bad tuple")
                if any(el not in names for el in tup) or val not in names:
                    raise StructureError(f"function {name} mentions unknown element")
            if len(table) != len(self.universe) ** arity:
                raise StructureError(f"function {name}/{arity} is not total")
        names.update((name, table[()]) for name, (arity, table)
                     in self.functions.items() if arity == 0)
        names.update(self.constants)
        self._names = names

    def element(self, name: str) -> str | None:
        """The element a bare name denotes: a constant's or a 0-ary
        function's value, else the universe element of that name, else
        ``None``."""
        return self._names.get(name)


def relation_test(tuples: frozenset[tuple[str, ...]], args: Sequence[Value]) -> Test:
    """The test that the argument values form a tuple of a relation."""
    return lambda s: tuple(arg(s) for arg in args) in tuples


def chain_test(terms: Sequence[Value], equal: Sequence[bool]) -> Test:
    """The test that consecutive terms are equal where ``equal`` says so and
    unequal elsewhere.  Every term is read before any pair is compared."""
    def test(s) -> bool:
        values = [term(s) for term in terms]
        return all((a == b) == eq for a, b, eq in zip(values, values[1:], equal))
    return test


def compile_literal(m: Structure, lit: Literal) -> Test:
    """The Tarskian truth test of ``lit`` under an assignment, a mapping
    from variables to elements.

    Every symbol is resolved in ``m`` once, reading the atom left to right;
    the first one that ``m`` leaves uninterpreted, or interprets at another
    arity, raises :class:`StructureError` naming it.  The test raises
    :class:`EvaluationError` on a variable the assignment leaves unbound.
    """
    atom = lit.atom
    if isinstance(atom, RelAtom):
        if atom.name not in m.relations:
            raise StructureError(f"relation {atom.name} uninterpreted")
        arity, tuples = m.relations[atom.name]
        if len(atom.args) != arity:
            raise StructureError(f"relation {atom.name} arity mismatch")
        test = relation_test(tuples, [_compile_term(m, a) for a in atom.args])
    else:
        test = chain_test([_compile_term(m, t) for t in atom.terms],
                          [rel == EQ for rel in atom.rels])
    return test if lit.positive else lambda s: not test(s)


def _compile_term(m: Structure, term: Term) -> Value:
    if isinstance(term, Var):
        name = term.name

        def value(s: Mapping[str, str]) -> str:
            val = s.get(name)
            if val is None:
                raise EvaluationError(f"unbound variable {name}")
            return val
        return value
    if isinstance(term, Const):
        element = m.element(term.name)
        if element is None:
            raise StructureError(f"constant {term.name} uninterpreted")
        return lambda s: element
    if term.func not in m.functions:
        raise StructureError(f"function {term.func} uninterpreted")
    arity, table = m.functions[term.func]
    if len(term.args) != arity:
        raise StructureError(f"function {term.func} arity mismatch")
    args = [_compile_term(m, a) for a in term.args]
    return lambda s: table[tuple(arg(s) for arg in args)]
