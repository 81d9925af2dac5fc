"""Acceptance suite: every pinned numeric result, checked exactly.

Each criterion prints one ``criterion NN PASS`` line on success (run with
``pytest -s`` to see them); a failing assertion fails the test and pytest
reports it as the criterion's FAIL line.  All comparisons are exact
rational equalities; the Monte Carlo checks use the stated frequency bound
at pinned seeds.
"""

from fractions import Fraction

import numpy as np

from ifgames import (
    EXIST,
    UNIV,
    ChanceOr,
    ChanceQ,
    MixedStrategy,
    build_matrix,
    conditional_value,
    enumerate_reduced,
    format_formula,
    negate,
    occurrences,
    parse_event,
    parse_formula,
    parse_nature_strategy,
    parse_profile,
    parse_structure,
    play_masses,
    simulate,
    solve,
    solve_zero_sum,
    truth_value,
    uniform_nature,
    verify_equilibrium,
)
from ifgames.corpus import corpus_text
from ifgames.solver import Equilibrium

from reference import from_rules
from test_solver import FIG3, fig1_named_order, fig1_row_kinds

F = Fraction


def passed(num: int, text: str):
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_fig1_value_and_support(fig1_solution, fig1_game):
    _, eq = fig1_solution
    assert eq.value == F(2, 3)
    kinds = fig1_row_kinds(fig1_game)
    # the matrix has one row per strategy: a row is a strategy index
    assert all(kinds[i][1] == "switch" for i, _ in eq.row_mix)
    passed(1, "hand-built game value 2/3, optimal support all-switch")


def test_criterion_02_semantic_monty_hall(mh_solution, fig1_solution):
    assert mh_solution[1].value == F(2, 3)
    assert mh_solution[1].value == fig1_solution[1].value
    passed(2, "semantic game truth value 2/3 matches the hand-built game")


def test_criterion_03_fig3_fidelity(fig1_solution, fig1_game):
    matrix, _ = fig1_solution
    order_r, order_c = fig1_named_order(fig1_game)
    num = matrix.cells(list(range(12)), list(range(6)))
    assert num[np.ix_(order_r, order_c)].tolist() == FIG3
    unnamed = [i for i in range(12) if i not in order_r]
    assert all(int(num[i].sum()) == 3 for i in unnamed)
    passed(3, "named rows match the published matrix; others hold three 1s")


def test_criterion_04_no_offer_variant(mh_prime_solution):
    assert mh_prime_solution[1].value == F(1, 3)
    passed(4, "no-offer variant truth value 1/3")


def test_criterion_05_matching_pennies_family():
    phi = parse_formula(corpus_text("matching_pennies.if"))
    for n in (2, 3, 4, 5):
        m = parse_structure(corpus_text(f"pennies_{n}.struct"))
        eq = truth_value(m, phi)
        assert eq.value == F(1, n)
        assert 0 < eq.value < 1  # indeterminate: neither player wins outright
    passed(5, "matching pennies 1/n for n = 2..5, all indeterminate")


def test_criterion_06_stochastic_matching_pennies(smp_game):
    lam = parse_nature_strategy(corpus_text("biased_coin.nat"), smp_game)
    matrix = build_matrix(smp_game, lam)
    eq = solve_zero_sum(matrix)
    assert eq.value == F(2, 9)
    assert verify_equilibrium(eq.matrix, eq)
    paper = Equilibrium(F(2, 9), ((0, F(2, 3)), (1, F(1, 3))),
                        ((0, F(2, 3)), (1, F(1, 3))), matrix)
    assert verify_equilibrium(matrix, paper)
    passed(6, "biased three-coin game: value 2/9; p = q = 2/3 verifies")


def test_criterion_07_indifferent_host(mh_chance_solution):
    assert mh_chance_solution[1].value == F(7, 9)
    passed(7, "indifferent-host variant truth value 7/9")


def test_criterion_08_stick_switch_conditionals(mh_prime_chance_game):
    game = mh_prime_chance_game
    lam = uniform_nature(game)
    row_mix, col_mix = parse_profile(
        corpus_text("mh_prime_chance_paper.profile"), game)
    stick = parse_event("z != x and z != y#1 and y = y#1", game)
    switch = parse_event("z != x and z != y#1 and y != y#1", game)
    c_stick = conditional_value(game, lam, row_mix, col_mix, stick)
    c_switch = conditional_value(game, lam, row_mix, col_mix, switch)
    assert c_stick.value == F(1, 2)
    assert c_switch.value == F(1, 2)
    passed(8, "excluding revealed doors, stick and switch each win 1/2")


def _sb_strategies(game):
    heads = from_rules(
        game, EXIST, lambda info: "L" if info.label == "@/0/0/1[]"
        else ("L" if "t=2,x=1" in info.label else "R"))
    tails = from_rules(
        game, EXIST, lambda info: "R" if info.label == "@/0/0/1[]"
        else ("L" if "t=2,x=1" in info.label else "R"))
    return heads, tails


def test_criterion_09_sleeping_beauty(sb_game, sb_structure, phi_sb):
    eq = truth_value(sb_structure, phi_sb)
    assert eq.value == F(3, 4)
    heads, tails = _sb_strategies(sb_game)
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    awake = parse_event("Awake(x,t)", sb_game)
    for p in (F(0), F(1, 2), F(1)):
        mix = MixedStrategy(EXIST, [(heads, p), (tails, 1 - p)])
        whole = conditional_value(sb_game, lam, mix, tau, None)
        assert whole.value == (3 - p) / 4
        assert conditional_value(sb_game, lam, mix, tau, awake).value == (2 - p) / 3
    pure_heads = MixedStrategy.pure(heads)
    assert conditional_value(sb_game, lam, pure_heads, tau, awake).value == F(1, 3)
    passed(9, "value 3/4; payoffs (3-p)/4; awake-conditional (2-p)/3, 1/3 at p=1")


def test_criterion_10_halfer_variant(sb_prime_game, sb_game):
    lam = uniform_nature(sb_prime_game)
    heads, tails = _sb_strategies(sb_prime_game)
    day = {}
    for when_tails in ("1", "2"):
        day[when_tails] = from_rules(
            sb_prime_game, UNIV,
            lambda info, w=when_tails: "1" if "[x=1]" in info.label else w)
    monday = parse_event("t = 1", sb_prime_game)
    grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    for p in grid:
        for q in grid:
            mu = MixedStrategy(EXIST, [(heads, p), (tails, 1 - p)])
            nu = MixedStrategy(UNIV, [(day["1"], q), (day["2"], 1 - q)])
            whole = conditional_value(sb_prime_game, lam, mu, nu, None)
            assert whole.value == F(1, 2)
            cond = conditional_value(sb_prime_game, lam, mu, nu, monday)
            assert cond.value == (p + (1 - p) * q) / (1 + q)
    # the alternative chance strategy on the original sentence matches q = 1/2
    lam_prime = parse_nature_strategy(corpus_text("sb_lambda_prime.nat"), sb_game)
    matrix = build_matrix(sb_game, lam_prime)
    eq = solve_zero_sum(matrix)
    assert eq.value == F(1, 2)
    heads0, tails0 = _sb_strategies(sb_game)
    tau0 = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    monday0 = parse_event("t = 1", sb_game)
    q = F(1, 2)
    for p in grid:
        mu = MixedStrategy(EXIST, [(heads0, p), (tails0, 1 - p)])
        whole = conditional_value(sb_game, lam_prime, mu, tau0, None)
        assert whole.value == F(1, 2)
        cond = conditional_value(sb_game, lam_prime, mu, tau0, monday0)
        assert cond.value == (p + (1 - p) * q) / (1 + q)
    passed(10, "universal-day variant constant 1/2; conditional family exact; "
               "alternative chance strategy matches q = 1/2")


def test_criterion_11_property_suite(corpus_formulas, doors3, binary,
                                     sb_structure, fig1_solution, mh_solution,
                                     mh_prime_solution, mh_chance_solution,
                                     fig1_game, mh_game, mh_prime_game,
                                     mh_chance_game, sb_game, smp_game,
                                     sb_prime_game):
    # NNF involution and round-trips on every corpus formula
    for name, phi in corpus_formulas.items():
        assert negate(negate(phi)) == phi, name
        assert parse_formula(format_formula(phi)) == phi, name

    # bivalence on the ten slash-free, chance-free corpus sentences
    classical = {n: f for n, f in corpus_formulas.items()
                 if n.startswith("classical")}
    assert len(classical) == 10
    values = {}
    for name, phi in classical.items():
        assert not any(isinstance(sub, (ChanceOr, ChanceQ))
                       or getattr(sub, "slash", None)
                       for _, sub in occurrences(phi))
        structure = (doors3 if name in ("classical_true_copycat.if",
                                        "classical_false_lone_element.if")
                     else sb_structure)
        values[name] = truth_value(structure, phi).value
        assert values[name] in (F(0), F(1)), name
        assert (values[name] == 1) == ("_true_" in name)

    # duality on every chance-free corpus sentence (positive-side values
    # taken from the already-computed solutions where available)
    values["phi_mh.if"] = mh_solution[1].value
    values["phi_mh_prime.if"] = mh_prime_solution[1].value
    values["matching_pennies.if"] = truth_value(
        binary, corpus_formulas["matching_pennies.if"]).value
    chance_free = {
        "phi_mh.if": doors3,
        "phi_mh_prime.if": doors3,
        "matching_pennies.if": binary,
        **{n: (doors3 if n in ("classical_true_copycat.if",
                               "classical_false_lone_element.if")
               else sb_structure) for n in classical},
    }
    for name, structure in chance_free.items():
        phi = corpus_formulas[name]
        assert truth_value(structure, negate(phi)).value == \
            1 - values[name], name

    # reduction soundness: settled and unsettled solves agree on every
    # corpus game whose unsettled matrix is within budget
    for game, lam, (_, eq) in (
            (fig1_game, uniform_nature(fig1_game), fig1_solution),
            (mh_game, uniform_nature(mh_game), mh_solution),
            (mh_prime_game, uniform_nature(mh_prime_game), mh_prime_solution),
            (mh_chance_game, uniform_nature(mh_chance_game),
             mh_chance_solution)):
        assert solve(game, lam).value == eq.value
    for game, lam in ((sb_game, uniform_nature(sb_game)),
                      (sb_prime_game, uniform_nature(sb_prime_game)),
                      (smp_game, parse_nature_strategy(
                          corpus_text("biased_coin.nat"), smp_game))):
        assert solve(game, lam).value == \
            solve_zero_sum(build_matrix(game, lam)).value

    # conditional coherence and outcome normalization
    heads, tails = _sb_strategies(sb_game)
    lam = uniform_nature(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    mix = MixedStrategy(EXIST, [(heads, F(1, 3)), (tails, F(2, 3))])
    awake = parse_event("Awake(x,t)", sb_game)
    asleep = parse_event("not Awake(x,t)", sb_game)
    c1 = conditional_value(sb_game, lam, mix, tau, awake)
    c2 = conditional_value(sb_game, lam, mix, tau, asleep)
    total = conditional_value(sb_game, lam, mix, tau, None).value
    assert c1.value * c1.p_event + c2.value * c2.p_event == total
    assert c1.p_event + c2.p_event == 1
    for sigma in (heads, tails):
        masses, scale = play_masses(sb_game, lam, MixedStrategy.pure(sigma), tau)
        assert sum(masses[t] for t in sb_game.terminals()) == scale
    passed(11, "involution, round-trip, bivalence, duality, reduction "
               "soundness, coherence, normalization - all exact")


def _within_bound(freq: Fraction, value: Fraction, plays: int) -> bool:
    # |freq - value| <= 4 sqrt(value (1 - value) / plays), compared squared
    return (freq - value) ** 2 <= 16 * value * (1 - value) / plays


def test_criterion_12_monte_carlo(fig1_solution, fig1_game,
                                  mh_chance_solution, mh_chance_game,
                                  smp_game, sb_game):
    plays = 100_000

    _, eq = fig1_solution
    report = simulate(fig1_game, uniform_nature(fig1_game),
                      eq.row_strategies(), eq.col_strategies(), plays, seed=1)
    assert _within_bound(report.win_frequency, F(2, 3), plays)

    lam = parse_nature_strategy(corpus_text("biased_coin.nat"), smp_game)
    rows = enumerate_reduced(smp_game, EXIST)
    cols = enumerate_reduced(smp_game, UNIV)
    mu = MixedStrategy(EXIST, [(rows[0], F(2, 3)), (rows[1], F(1, 3))])
    nu = MixedStrategy(UNIV, [(cols[0], F(2, 3)), (cols[1], F(1, 3))])
    report = simulate(smp_game, lam, mu, nu, plays, seed=6)
    assert _within_bound(report.win_frequency, F(2, 9), plays)

    _, eq7 = mh_chance_solution
    report = simulate(mh_chance_game, uniform_nature(mh_chance_game),
                      eq7.row_strategies(), eq7.col_strategies(), plays, seed=7)
    assert _within_bound(report.win_frequency, F(7, 9), plays)

    heads, tails = _sb_strategies(sb_game)
    tau = MixedStrategy.pure(enumerate_reduced(sb_game, UNIV)[0])
    report = simulate(sb_game, uniform_nature(sb_game),
                      MixedStrategy.pure(tails), tau, plays, seed=9,
                      events={"awake": parse_event("Awake(x,t)", sb_game)})
    assert _within_bound(report.win_frequency, F(3, 4), plays)
    hits, wins = report.event_counts["awake"]
    assert _within_bound(F(wins, hits), F(2, 3), hits)
    passed(12, "simulated frequencies within 4*sqrt(v(1-v)/plays) at pinned seeds")
