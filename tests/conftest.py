"""Shared fixtures: corpus inputs and the expensive solves, computed once."""

from __future__ import annotations

import pytest

from ifgames import (
    build_matrix,
    build_semantic_game,
    parse_extensive_game,
    parse_formula,
    parse_structure,
    reduce_matrix,
    solve_zero_sum,
    uniform_nature,
)
from ifgames.corpus import corpus_text


@pytest.fixture(scope="session")
def doors3():
    return parse_structure(corpus_text("doors3.struct"))


@pytest.fixture(scope="session")
def binary():
    return parse_structure(corpus_text("binary.struct"))


@pytest.fixture(scope="session")
def sb_structure():
    return parse_structure(corpus_text("sleeping_beauty.struct"))


def _formula(name):
    return parse_formula(corpus_text(name))


@pytest.fixture(scope="session")
def phi_mh():
    return _formula("phi_mh.if")


@pytest.fixture(scope="session")
def phi_mh_prime():
    return _formula("phi_mh_prime.if")


@pytest.fixture(scope="session")
def phi_mh_chance():
    return _formula("phi_mh_chance.if")


@pytest.fixture(scope="session")
def phi_mh_prime_chance():
    return _formula("phi_mh_prime_chance.if")


@pytest.fixture(scope="session")
def phi_mp():
    return _formula("matching_pennies.if")


@pytest.fixture(scope="session")
def phi_smp():
    return _formula("stochastic_matching_pennies.if")


@pytest.fixture(scope="session")
def phi_sb():
    return _formula("phi_sb.if")


@pytest.fixture(scope="session")
def phi_sb_prime():
    return _formula("phi_sb_prime.if")


@pytest.fixture(scope="session")
def fig1_game():
    return parse_extensive_game(corpus_text("monty_hall.game"))


@pytest.fixture(scope="session")
def mh_game(doors3, phi_mh):
    return build_semantic_game(doors3, phi_mh)


@pytest.fixture(scope="session")
def mh_prime_game(doors3, phi_mh_prime):
    return build_semantic_game(doors3, phi_mh_prime)


@pytest.fixture(scope="session")
def mh_chance_game(doors3, phi_mh_chance):
    return build_semantic_game(doors3, phi_mh_chance)


@pytest.fixture(scope="session")
def mh_prime_chance_game(doors3, phi_mh_prime_chance):
    return build_semantic_game(doors3, phi_mh_prime_chance)


@pytest.fixture(scope="session")
def sb_game(sb_structure, phi_sb):
    return build_semantic_game(sb_structure, phi_sb)


@pytest.fixture(scope="session")
def sb_prime_game(sb_structure, phi_sb_prime):
    return build_semantic_game(sb_structure, phi_sb_prime)


@pytest.fixture(scope="session")
def smp_game(binary, phi_smp):
    return build_semantic_game(binary, phi_smp)


def _pipeline(game, lam=None):
    lam = lam or uniform_nature(game)
    matrix = build_matrix(game, lam)
    reduced = reduce_matrix(matrix)
    return matrix, reduced, solve_zero_sum(reduced)


@pytest.fixture(scope="session")
def mh_solution(mh_game):
    return _pipeline(mh_game)


@pytest.fixture(scope="session")
def mh_prime_solution(mh_prime_game):
    return _pipeline(mh_prime_game)


@pytest.fixture(scope="session")
def mh_chance_solution(mh_chance_game):
    return _pipeline(mh_chance_game)


@pytest.fixture(scope="session")
def fig1_solution(fig1_game):
    return _pipeline(fig1_game)


@pytest.fixture(scope="session")
def corpus_formula_names():
    return [
        "phi_mh.if", "phi_mh_prime.if", "phi_mh_chance.if",
        "phi_mh_prime_chance.if", "matching_pennies.if",
        "stochastic_matching_pennies.if", "phi_sb.if", "phi_sb_prime.if",
        "classical_true_copycat.if", "classical_false_lone_element.if",
        "classical_true_some_heads.if", "classical_true_heads_or_tails.if",
        "classical_true_some_sleeping.if", "classical_false_always_awake.if",
        "classical_true_tails_always_awake.if",
        "classical_false_sleeper_every_day.if",
        "classical_true_heads_is_monday.if", "classical_false_tails_monday.if",
    ]


@pytest.fixture(scope="session")
def corpus_formulas(corpus_formula_names):
    return {name: _formula(name) for name in corpus_formula_names}
