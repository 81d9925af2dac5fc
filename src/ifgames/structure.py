"""Finite first-order structures and literal evaluation.

A structure interprets relation, constant and function symbols over a finite
universe of named elements.  Universe elements are plain strings; numerals
like ``1`` are element names, not integers.  Equality is built in and never a
declared relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EvaluationError, StructureError
from .formula import (
    App,
    Const,
    Formula,
    Literal,
    RelAtom,
    Term,
    Var,
    children,
)


@dataclass
class Structure:
    universe: tuple[str, ...]
    # name -> (arity, set of element tuples)
    relations: dict[str, tuple[int, frozenset[tuple[str, ...]]]] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)
    # name -> (arity, total map from element tuples to elements)
    functions: dict[str, tuple[int, dict[tuple[str, ...], str]]] = field(default_factory=dict)

    def __post_init__(self):
        seen: set[str] = set()
        for el in self.universe:
            if el in seen:
                raise StructureError(f"duplicate universe element {el!r}")
            seen.add(el)
        if not self.universe:
            raise StructureError("empty universe")
        for name, (arity, tuples) in self.relations.items():
            for tup in tuples:
                if len(tup) != arity:
                    raise StructureError(
                        f"relation {name}/{arity} holds a tuple of length {len(tup)}"
                    )
                for el in tup:
                    if el not in seen:
                        raise StructureError(
                            f"relation {name} mentions unknown element {el!r}"
                        )
        for name, el in self.constants.items():
            if el not in seen:
                raise StructureError(f"constant {name} names unknown element {el!r}")
        for name, (arity, table) in self.functions.items():
            for tup, val in table.items():
                if len(tup) != arity:
                    raise StructureError(f"function {name}/{arity} keyed by bad tuple")
                if any(el not in seen for el in tup) or val not in seen:
                    raise StructureError(f"function {name} mentions unknown element")
            if len(table) != len(self.universe) ** arity:
                raise StructureError(f"function {name}/{arity} is not total")
        self._elements = frozenset(seen)

    def has_element(self, name: str) -> bool:
        return name in self._elements


class Assignment:
    """Partial variable assignment induced by a history.

    Persistent: extending returns a new assignment sharing this one as its
    prefix.  Later bindings mask earlier ones for the same variable, but the
    full binding order is kept (a requantified variable has several values
    in sequence, which conditioning events may reference).
    """

    __slots__ = ("_parent", "_var", "_value", "_map")

    def __init__(self, parent: "Assignment | None" = None,
                 var: str | None = None, value: str | None = None):
        self._parent = parent
        self._var = var
        self._value = value
        self._map: dict[str, str] | None = None

    @staticmethod
    def empty() -> "Assignment":
        return _EMPTY_ASSIGNMENT

    def extend(self, var: str, value: str) -> "Assignment":
        return Assignment(self, var, value)

    def as_dict(self) -> dict[str, str]:
        if self._map is None:
            if self._parent is None:
                self._map = {}
            else:
                self._map = dict(self._parent.as_dict())
                self._map[self._var] = self._value  # type: ignore[index]
        return self._map

    def value(self, var: str) -> str | None:
        return self.as_dict().get(var)

    def domain(self) -> frozenset[str]:
        return frozenset(self.as_dict())

    def bindings(self) -> tuple[tuple[str, str], ...]:
        """All (variable, value) moves in binding order, masks included."""
        if self._parent is None:
            return ()
        return self._parent.bindings() + ((self._var, self._value),)  # type: ignore[arg-type]

    def values_of(self, var: str) -> tuple[str, ...]:
        """All values bound to ``var`` in order (requantification history)."""
        return tuple(v for x, v in self.bindings() if x == var)

    def restricted_items(self, exclude: frozenset[str]) -> tuple[tuple[str, str], ...]:
        return tuple(
            (var, val) for var, val in sorted(self.as_dict().items())
            if var not in exclude
        )

    def __repr__(self):
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
        return f"Assignment({inner})"


_EMPTY_ASSIGNMENT = Assignment()


def eval_term(m: Structure, s: Assignment, term: Term) -> str:
    if isinstance(term, Var):
        val = s.value(term.name)
        if val is None:
            raise EvaluationError(f"unbound variable {term.name}")
        return val
    if isinstance(term, Const):
        if term.name in m.constants:
            return m.constants[term.name]
        if m.has_element(term.name):
            return term.name
        raise EvaluationError(f"unknown constant symbol {term.name}")
    if isinstance(term, App):
        if term.func not in m.functions:
            raise EvaluationError(f"unknown function symbol {term.func}")
        arity, table = m.functions[term.func]
        if len(term.args) != arity:
            raise EvaluationError(f"function {term.func} expects {arity} arguments")
        key = tuple(eval_term(m, s, a) for a in term.args)
        return table[key]
    raise TypeError(f"not a term: {term!r}")


def eval_literal(m: Structure, s: Assignment, lit: Literal) -> bool:
    """Tarskian truth of a literal under assignment ``s``.

    A chain evaluates as the conjunction of its consecutive constraints;
    negative polarity flips the result.
    """
    atom = lit.atom
    if isinstance(atom, RelAtom):
        if atom.name not in m.relations:
            raise EvaluationError(f"unknown relation symbol {atom.name}")
        arity, tuples = m.relations[atom.name]
        if len(atom.args) != arity:
            raise EvaluationError(f"relation {atom.name} expects {arity} arguments")
        value = tuple(eval_term(m, s, a) for a in atom.args) in tuples
    else:
        value = True
        for left, rel, right in atom.constraints():
            lv = eval_term(m, s, left)
            rv = eval_term(m, s, right)
            ok = (lv == rv) if rel == "=" else (lv != rv)
            if not ok:
                value = False
                break
    return value if lit.positive else not value


def _term_problem(m: Structure, term: Term) -> str | None:
    if isinstance(term, Const):
        if term.name not in m.constants and not m.has_element(term.name):
            return f"constant {term.name} uninterpreted"
        return None
    if isinstance(term, App):
        if term.func not in m.functions:
            return f"function {term.func} uninterpreted"
        arity, _ = m.functions[term.func]
        if len(term.args) != arity:
            return f"function {term.func} arity mismatch"
        for arg in term.args:
            problem = _term_problem(m, arg)
            if problem:
                return problem
    return None


def suitable(m: Structure, phi: Formula):
    """True iff ``m`` interprets every symbol of ``phi`` at matching arity.

    Returns ``True`` or a diagnostic string naming the first missing or
    mismatched symbol.
    """
    if isinstance(phi, Literal):
        atom = phi.atom
        terms: tuple[Term, ...]
        if isinstance(atom, RelAtom):
            if atom.name not in m.relations:
                return f"relation {atom.name} uninterpreted"
            arity, _ = m.relations[atom.name]
            if arity != len(atom.args):
                return f"relation {atom.name} arity mismatch"
            terms = atom.args
        else:
            terms = atom.terms
        for term in terms:
            problem = _term_problem(m, term)
            if problem:
                return problem
        return True
    for child in children(phi):
        result = suitable(m, child)
        if result is not True:
            return result
    return True
