"""Exception types shared across the package."""

from __future__ import annotations


class IfGameError(Exception):
    """Base class for all workbench errors."""


class ParseError(IfGameError):
    """Syntax or format error in an input file, with source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column if column is not None else '?'}: {message}"
        super().__init__(message)


class StructureError(IfGameError):
    """Ill-formed finite structure (duplicate elements, bad tuples, arity),
    or one that leaves a symbol of a compiled literal uninterpreted."""


class EvaluationError(IfGameError):
    """A compiled literal read a variable its assignment leaves unbound.

    A symbol the structure does not interpret is found when the literal is
    compiled, as a :class:`StructureError`; a game's literals are all
    compiled before it is built."""


class GameError(IfGameError):
    """Ill-formed game, non-sentence input, or misuse of a game operation."""


class NatureStrategyError(IfGameError):
    """Bad behavioral-strategy description for the chance player."""


class ProfileError(IfGameError):
    """Bad mixed-strategy profile description."""


class EventError(IfGameError):
    """Bad event expression."""


class ZeroProbabilityEventError(IfGameError):
    """Conditioning event has probability zero under the given profile."""


class BudgetError(IfGameError):
    """A configured node or strategy budget was exceeded."""

    def __init__(self, what: str, limit: int, reached: int):
        self.what = what
        self.limit = limit
        self.reached = reached
        super().__init__(f"{what} budget exceeded: limit {limit}, reached {reached}")
