"""Reduced-strategy enumeration, the follow relation, play masses."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ifgames import (
    EXIST,
    NATURE,
    UNIV,
    BudgetError,
    GameError,
    MixedStrategy,
    Structure,
    build_semantic_game,
    enumerate_reduced,
    parse_formula,
    parse_nature_strategy,
    parse_profile,
    play_masses,
    uniform_nature,
)
from ifgames.corpus import CORPUS, corpus_text
from ifgames.parser import load_game
from ifgames.strategy import _smallest_int_dtype
from random_sentences import seeded_sentence
from reference import follows, from_rules


def test_fig1_reduced_counts(fig1_game):
    assert len(enumerate_reduced(fig1_game, EXIST)) == 12
    assert len(enumerate_reduced(fig1_game, UNIV)) == 6


def test_fig1_pure_counts(fig1_game):
    # a pure strategy picks one action at each of the player's sets
    def pure(player):
        return math.prod(len(info.actions)
                         for info in fig1_game.information_partition(player))
    assert pure(EXIST) == 192
    assert pure(UNIV) == 24


def test_matching_pennies_two_strategies():
    m = Structure(("0", "1"))
    game = build_semantic_game(m, parse_formula("forall x (exists y/{x}) x = y"))
    rows = enumerate_reduced(game, EXIST)
    assert len(rows) == 2
    assert [dict(s.actions)[0] for s in rows] == [0, 1]  # y:=0 first, then y:=1


def test_phi_mh_reduced_counts(mh_game):
    assert len(enumerate_reduced(mh_game, EXIST)) == 823_875
    assert len(enumerate_reduced(mh_game, UNIV)) == 81


def test_budget_error_reports_count(mh_game):
    with pytest.raises(BudgetError) as err:
        enumerate_reduced(mh_game, EXIST, budget=1000)
    assert err.value.reached > 1000
    assert err.value.limit == 1000


def test_enumeration_deterministic(fig1_game):
    a = enumerate_reduced(fig1_game, EXIST)
    b = enumerate_reduced(fig1_game, EXIST)
    assert (a.table == b.table).all()


def test_nature_has_no_reduced_strategies(sb_game):
    with pytest.raises(GameError):
        enumerate_reduced(sb_game, 2)


def test_follows_empty_strategy(sb_game):
    # Abelard has no decision points in the chance-quantified sentence
    tau = enumerate_reduced(sb_game, UNIV)[0]
    assert tau.actions == ()
    assert all(follows(t, tau) for t in sb_game.terminals())


def test_follows_detects_deviation(mh_game):
    rows = enumerate_reduced(mh_game, EXIST)
    sigma = rows[0]  # first strategy: initial y := 1 everywhere reachable
    infos = mh_game.information_partition(EXIST)
    assert dict(sigma.actions)[0] == 0
    y2 = [n for n in mh_game.children[mh_game.children[mh_game.root][0]]
          if mh_game.move[n] == "2"]
    assert not follows(y2[0], sigma)
    y1 = [n for n in mh_game.children[mh_game.children[mh_game.root][0]]
          if mh_game.move[n] == "1"]
    assert follows(y1[0], sigma)


def test_follows_monotone_on_prefixes(fig1_game):
    rng = random.Random(5)
    rows = enumerate_reduced(fig1_game, EXIST)
    cols = enumerate_reduced(fig1_game, UNIV)
    for _ in range(50):
        sigma = rows[rng.randrange(len(rows))]
        node = rng.randrange(len(fig1_game))
        if follows(node, sigma):
            for prefix in fig1_game.ancestors(node):
                assert follows(prefix, sigma)


def test_fig1_stick_history_follow(fig1_game):
    # prize 1, guess 1, open 2, stick at 1: the all-stick strategy follows it
    rows = enumerate_reduced(fig1_game, EXIST)
    infos = fig1_game.information_partition(EXIST)
    sigma1 = from_rules(
        fig1_game, EXIST,
        lambda info: "1" if info.label == "@a[]" else
        [a for a in info.actions if a == "1"][0] if "1" in info.actions else info.actions[0])
    node = fig1_game.root
    for move in ("1", "1", "2", "1"):
        node = next(c for c in fig1_game.children[node]
                    if fig1_game.move[c] == move)
    assert fig1_game.is_terminal(node)
    assert follows(node, sigma1)


def _outcomes(game, lam, sigma, tau):
    """The terminals of positive mass under the pure profile (λ, σ, τ),
    with their probabilities."""
    masses, scale = play_masses(game, lam, MixedStrategy.pure(sigma),
                                MixedStrategy.pure(tau))
    return {t: Fraction(masses[t], scale) for t in game.terminals() if masses[t]}


def test_play_masses_deterministic_game(mh_game):
    lam = uniform_nature(mh_game)  # chance-free: empty behavioral strategy
    sigma = enumerate_reduced(mh_game, EXIST)[0]
    tau = enumerate_reduced(mh_game, UNIV)[0]
    dist = _outcomes(mh_game, lam, sigma, tau)
    assert len(dist) == 1
    ((node, mass),) = dist.items()
    assert mass == 1 and mh_game.is_terminal(node)


def test_play_masses_sb_quarters(sb_game):
    lam = uniform_nature(sb_game)
    tails = from_rules(
        sb_game, EXIST,
        lambda info: "R" if info.label == "@/0/0/1[]"
        else ("L" if "t=2,x=1" in info.label else "R"))
    tau = enumerate_reduced(sb_game, UNIV)[0]
    dist = _outcomes(sb_game, lam, tails, tau)
    assert len(dist) == 4
    assert all(mass == Fraction(1, 4) for mass in dist.values())


def test_play_masses_biased_chance(smp_game):
    lam = parse_nature_strategy("z : 0 -> 1/3, 1 -> 2/3", smp_game)
    sigma = enumerate_reduced(smp_game, EXIST)[0]
    tau = enumerate_reduced(smp_game, UNIV)[0]
    dist = _outcomes(smp_game, lam, sigma, tau)
    assert sorted(dist.values()) == [Fraction(1, 3), Fraction(2, 3)]


def test_play_masses_sum_to_one(fig1_game, sb_game, mh_chance_game):
    rng = random.Random(11)
    for game in (fig1_game, sb_game, mh_chance_game):
        lam = uniform_nature(game)
        rows = enumerate_reduced(game, EXIST)
        cols = enumerate_reduced(game, UNIV)
        for _ in range(10):
            sigma = rows[rng.randrange(len(rows))]
            tau = cols[rng.randrange(len(cols))]
            dist = _outcomes(game, lam, sigma, tau)
            assert sum(dist.values(), Fraction(0)) == 1


def _chance_along(game, lam, node) -> Fraction:
    """The product of the chance probabilities along ``node``'s history."""
    mass = Fraction(1)
    while node != game.root:
        at = game.parent[node]
        if game.owner[at] == NATURE:
            mass *= lam.distribution(at)[game.children[at].index(node)]
        node = at
    return mass


def _assert_play_masses_match_pure_pairs(game, lam, row_mix, col_mix):
    """``play_masses`` at the terminals equals the slow reference, the sum
    over pure pairs of chance reach x follows x follows, and sums to 1."""
    masses, scale = play_masses(game, lam, row_mix, col_mix)
    got = [Fraction(masses[t], scale) for t in game.terminals()]
    want = [_chance_along(game, lam, t) * sum(
        w * v for sigma, w in row_mix for tau, v in col_mix
        if follows(t, sigma) and follows(t, tau)) for t in game.terminals()]
    assert got == want
    assert sum(got) == 1


# every corpus query profile, and one under the halfer chance, whose
# zero-probability branch the profiles' own chance strategies lack
_PROFILES = sorted({(entry.formula, check.structure, check.nature, query.profile)
                    for entry in CORPUS for check in entry.checks
                    for query in check.queries}, key=str) + [
    ("phi_sb.if", "sleeping_beauty.struct", "sb_lambda_prime.nat", "sb_even.profile")]


@pytest.mark.parametrize("formula, structure, nature, profile", _PROFILES,
                         ids=[f"{p[3]}{'+' + p[2] if p[2] else ''}"
                              for p in _PROFILES])
def test_play_masses_match_pure_pairs_on_corpus_profiles(formula, structure,
                                                         nature, profile):
    game, lam = load_game(corpus_text(formula), corpus_text(structure),
                          nature and corpus_text(nature))
    _assert_play_masses_match_pure_pairs(
        game, lam, *parse_profile(corpus_text(profile), game))


def _random_mix(rng, strategies):
    """A mix over up to three of ``strategies``, with random rational masses."""
    support = rng.sample(range(len(strategies)),
                         rng.randint(1, min(len(strategies), 3)))
    parts = [rng.randint(1, 9) for _ in support]
    return MixedStrategy(strategies.player, [
        (strategies[i], Fraction(p, sum(parts))) for i, p in zip(support, parts)])


def test_play_masses_match_pure_pairs_on_random_sentences():
    rng = random.Random(22)
    checked = 0
    for seed in range(100):
        game, lam = load_game(*seeded_sentence(seed))
        try:
            rows = enumerate_reduced(game, EXIST, 10**4)
            cols = enumerate_reduced(game, UNIV, 10**4)
        except BudgetError:
            continue
        for _ in range(3):
            _assert_play_masses_match_pure_pairs(
                game, lam, _random_mix(rng, rows), _random_mix(rng, cols))
        checked += 1
    assert checked == 97  # three seeds exceed the budget


def test_uniform_nature(mh_chance_game, sb_game, mh_game):
    lam = uniform_nature(mh_chance_game)
    for node in mh_chance_game.chance_nodes():
        assert lam.distribution(node) == (Fraction(1, 3),) * 3
    lam = uniform_nature(sb_game)
    for node in sb_game.chance_nodes():
        assert lam.distribution(node) == (Fraction(1, 2), Fraction(1, 2))
    assert uniform_nature(mh_game).dists == {}


def test_play_masses_reduced_extension_invariance(fig1_game, sb_game):
    # extending a reduced strategy on unreachable sets never changes outcomes
    rng = random.Random(7)
    for game in (fig1_game, sb_game):
        lam = uniform_nature(game)
        rows = enumerate_reduced(game, EXIST)
        cols = enumerate_reduced(game, UNIV)
        infosets = game.information_partition(EXIST)
        for _ in range(10):
            sigma = rows[rng.randrange(len(rows))]
            tau = cols[rng.randrange(len(cols))]
            base = _outcomes(game, lam, sigma, tau)
            # the unreachable sets get a random action each
            chosen = dict(sigma.actions)
            filled = type(sigma)(game, EXIST, {
                info.index: chosen[info.index] if info.index in chosen
                else rng.randrange(len(info.actions)) for info in infosets})
            assert len(filled.actions) == len(infosets)
            assert _outcomes(game, lam, filled, tau) == base


def test_mixed_strategy_validation(sb_game):
    sigma = enumerate_reduced(sb_game, EXIST)[0]
    with pytest.raises(GameError):
        MixedStrategy(EXIST, [(sigma, Fraction(1, 2))])
    with pytest.raises(GameError):
        MixedStrategy(EXIST, [(sigma, Fraction(3, 2)), (sigma, Fraction(-1, 2))])
    mix = MixedStrategy(EXIST, [(sigma, Fraction(1, 2)), (sigma, Fraction(1, 2))])
    assert sum(w for _, w in mix.support) == 1


def test_strategy_lines_round_trip_identity(fig1_game):
    rows = enumerate_reduced(fig1_game, EXIST)
    seen = set()
    for sigma in rows:
        lines = sigma.lines()
        assert lines not in seen  # distinct strategies print distinctly
        seen.add(lines)
        for line in lines:
            assert " -> " in line and line.startswith("@")


@pytest.mark.parametrize("max_value, dtype", [
    (127, np.int8), (128, np.int16),
    (32_767, np.int16), (32_768, np.int32),
    (2**31 - 1, np.int32), (2**31, np.int64),
    (2**63 - 1, np.int64),
])
def test_smallest_int_dtype(max_value, dtype):
    assert _smallest_int_dtype(max_value) is dtype
