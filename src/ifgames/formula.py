"""Syntax trees for independence-friendly formulas with chance operators.

Formulas are kept in negation normal form: negation never appears as a tree
node, only as literal polarity.  Disjunction, conjunction and the two
ordinary quantifiers carry a slash set (the variables the choice must be
uniform in); the chance connective and chance quantifier never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

OccurrenceId = tuple[int, ...]

EQ = "="
NEQ = "!="
_FLIP_REL = {EQ: NEQ, NEQ: EQ}


# --------------------------------------------------------------------- terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    """Bare name: a declared constant, a 0-ary function or a universe element."""

    name: str


@dataclass(frozen=True)
class App:
    """Function application.  Parsed and validated; the corpus never uses it."""

    func: str
    args: tuple["Term", ...]


Term = Union[Var, Const, App]


def term_variables(term: Term) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, App):
        out: frozenset[str] = frozenset()
        for arg in term.args:
            out |= term_variables(arg)
        return out
    return frozenset()


# --------------------------------------------------------------------- atoms

@dataclass(frozen=True)
class RelAtom:
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class ChainAtom:
    """Equality/inequality chain over two or three terms, e.g. ``x = y = z``.

    Evaluated atomically as the conjunction of its consecutive constraints.
    """

    terms: tuple[Term, ...]
    rels: tuple[str, ...]  # one of '=', '!=' between consecutive terms

    def __post_init__(self):
        if not 2 <= len(self.terms) <= 3:
            raise ValueError("chain literal needs two or three terms")
        if len(self.rels) != len(self.terms) - 1:
            raise ValueError("chain relation count must be term count - 1")


Atom = Union[RelAtom, ChainAtom]


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True


# ----------------------------------------------------------------- formulas

@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"
    slash: frozenset[str] = frozenset()


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"
    slash: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Exists:
    var: str
    slash: frozenset[str]
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    slash: frozenset[str]
    body: "Formula"


@dataclass(frozen=True)
class ChanceOr:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ChanceQ:
    var: str
    body: "Formula"


Formula = Union[Literal, Or, And, Exists, Forall, ChanceOr, ChanceQ]


def children(phi: Formula) -> tuple[Formula, ...]:
    if isinstance(phi, Literal):
        return ()
    if isinstance(phi, (Or, And, ChanceOr)):
        return (phi.left, phi.right)
    return (phi.body,)


# -------------------------------------------------------------- operations

def negate(phi: Formula) -> Formula:
    """Negation-normal-form dual of ``phi``.

    Literals flip polarity (a two-term chain flips its relation instead, so
    the canonical form never shows ``~`` on a plain equality); disjunction
    and conjunction swap; the quantifiers swap; chance nodes are self-dual
    since the chance player is outcome-indifferent.
    """
    if isinstance(phi, Literal):
        atom = phi.atom
        if isinstance(atom, ChainAtom) and len(atom.terms) == 2:
            return Literal(ChainAtom(atom.terms, (_FLIP_REL[atom.rels[0]],)), phi.positive)
        return Literal(atom, not phi.positive)
    if isinstance(phi, Or):
        return And(negate(phi.left), negate(phi.right), phi.slash)
    if isinstance(phi, And):
        return Or(negate(phi.left), negate(phi.right), phi.slash)
    if isinstance(phi, Exists):
        return Forall(phi.var, phi.slash, negate(phi.body))
    if isinstance(phi, Forall):
        return Exists(phi.var, phi.slash, negate(phi.body))
    if isinstance(phi, ChanceOr):
        return ChanceOr(negate(phi.left), negate(phi.right))
    if isinstance(phi, ChanceQ):
        return ChanceQ(phi.var, negate(phi.body))
    raise TypeError(f"not a formula: {phi!r}")


def implies(phi: Formula, psi: Formula) -> Formula:
    """``phi -> psi`` desugared to the unslashed disjunction ``~phi \\/ psi``."""
    return Or(negate(phi), psi, frozenset())


def free_variables(phi: Formula) -> frozenset[str]:
    """Free variables, counting every slash-set variable free at its node."""
    if isinstance(phi, Literal):
        out: frozenset[str] = frozenset()
        if isinstance(phi.atom, RelAtom):
            for arg in phi.atom.args:
                out |= term_variables(arg)
        else:
            for term in phi.atom.terms:
                out |= term_variables(term)
        return out
    if isinstance(phi, (Or, And)):
        return free_variables(phi.left) | free_variables(phi.right) | phi.slash
    if isinstance(phi, ChanceOr):
        return free_variables(phi.left) | free_variables(phi.right)
    if isinstance(phi, (Exists, Forall)):
        return (free_variables(phi.body) - {phi.var}) | phi.slash
    if isinstance(phi, ChanceQ):
        return free_variables(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def occurrences(phi: Formula) -> list[tuple[OccurrenceId, Formula]]:
    """Preorder list of every subformula occurrence with its tree path.

    Distinct occurrences of syntactically equal subformulas get distinct
    paths; the listing is stable across calls.
    """
    out: list[tuple[OccurrenceId, Formula]] = []

    def walk(node: Formula, path: OccurrenceId):
        out.append((path, node))
        for i, child in enumerate(children(node)):
            walk(child, path + (i,))

    walk(phi, ())
    return out


def has_chance(phi: Formula) -> bool:
    if isinstance(phi, (ChanceOr, ChanceQ)):
        return True
    return any(has_chance(c) for c in children(phi))


def is_slash_free(phi: Formula) -> bool:
    if isinstance(phi, (Or, And, Exists, Forall)) and phi.slash:
        return False
    return all(is_slash_free(c) for c in children(phi))


def occurrence_label(path: OccurrenceId) -> str:
    """Render an occurrence path as ``/0/1`` (root is ``/``)."""
    if not path:
        return "/"
    return "/" + "/".join(str(i) for i in path)
