"""A seeded generator of small IF sentences, for differential tests.

``random_sentence(rng, universe)`` writes a closed sentence in the concrete
syntax: quantifiers with slash sets (``exists y/{x}``), chance quantifiers,
``\\/`` and ``/\\`` with and without slash sets, the chance-or ``><``,
negation, and the literals ``=``/``!=`` between variables and universe
elements.  Variables come from a small pool and may be quantified again, as
``y`` is in the Monty Hall sentence.  Everything is drawn from the given
``random.Random``, so a seed fixes the sentence.  ``seeded_sentence(seed)``
draws one such sentence with a universe of 2 or 3 elements, and
``random_game(seed)`` builds its game.
"""

from __future__ import annotations

import random

from ifgames.parser import load_game

VARIABLES = ("x", "y", "z")


def random_sentence(rng: random.Random, universe: tuple[str, ...],
                    quantifiers: int = 4, depth: int = 4) -> str:
    """A closed sentence with at most ``quantifiers`` quantifiers, whose
    formula tree is at most about ``depth`` connectives deep."""
    budget = [quantifiers - 1]
    return _quantified(rng, universe, (), budget, depth)


def seeded_sentence(seed: int) -> tuple[str, str]:
    """The sentence that ``seed`` draws and its structure's text, a
    universe of 2 or 3 elements."""
    rng = random.Random(seed)
    universe = tuple(str(i) for i in range(rng.randint(2, 3)))
    return random_sentence(rng, universe), f"universe {' '.join(universe)}\n"


def random_game(seed: int):
    """The semantic game of the sentence that ``seed`` draws."""
    return load_game(*seeded_sentence(seed), None)[0]


def _quantified(rng, universe, bound, budget, depth) -> str:
    kind = rng.choice(("forall", "exists", "chance"))
    var = rng.choice(VARIABLES)
    head = f"{kind} {var}"
    if kind != "chance" and bound and rng.random() < 0.6:
        head += _slash(rng, bound, "/")
    inner = bound if var in bound else bound + (var,)
    return f"{head} ({_formula(rng, universe, inner, budget, depth - 1)})"


def _formula(rng, universe, bound, budget, depth) -> str:
    roll = rng.random() if depth > 0 else 1.0
    if roll < 0.35 and budget[0] > 0:
        budget[0] -= 1
        return _quantified(rng, universe, bound, budget, depth)
    if roll < 0.7:
        op = rng.choice(("\\/", "/\\", "><"))
        if op != "><" and rng.random() < 0.4:
            op += _slash(rng, bound, "")
        left = _formula(rng, universe, bound, budget, depth - 1)
        right = _formula(rng, universe, bound, budget, depth - 1)
        return f"({left}) {op} ({right})"
    if roll < 0.8:
        return f"~({_formula(rng, universe, bound, budget, depth - 1)})"
    return _literal(rng, universe, bound)


def _slash(rng, bound, lead: str) -> str:
    names = sorted(rng.sample(bound, rng.randint(1, len(bound))))
    return f"{lead}{{{','.join(names)}}}"


def _literal(rng, universe, bound) -> str:
    left = rng.choice(bound)
    right = rng.choice(bound + universe)
    return f"{left} {rng.choice(('=', '!='))} {right}"
