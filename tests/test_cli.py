"""End-to-end command-line checks: subcommands, exit codes, stable output."""

import json
import subprocess
import sys
from importlib import resources

import pytest

from ifgames import BudgetError, solver
from ifgames.cli import build_arg_parser, main
from ifgames.corpus import corpus_text
from ifgames.parser import load_game


def corpus_path(name: str) -> str:
    return str(resources.files("ifgames") / "corpus" / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_matching_pennies(capsys):
    code, out, err = run(capsys, "value", corpus_path("matching_pennies.if"),
                         corpus_path("pennies_2.struct"))
    assert code == 0
    assert "value = 1/2" in out


def test_value_game_file(capsys):
    code, out, _ = run(capsys, "value", corpus_path("monty_hall.game"))
    assert code == 0
    assert "value = 2/3" in out


def test_settling_cannot_be_switched_off(capsys):
    game = corpus_path("monty_hall.game")
    code, out, _ = run(capsys, "value", game)
    assert code == 0
    assert "value = 2/3" in out
    assert "reduction: tree: " in out
    for argv in (["value", game], ["condition", game, "--solve"],
                 ["simulate", game, "--solve"], ["corpus"]):
        code, out, err = run(capsys, *argv, "--no-weak-dominance")
        assert (code, out) == (1, ""), argv
        assert "unrecognized arguments: --no-weak-dominance" in err


def test_value_with_nature_file(capsys):
    code, out, _ = run(capsys, "value",
                       corpus_path("stochastic_matching_pennies.if"),
                       corpus_path("binary.struct"),
                       "--nature", corpus_path("biased_coin.nat"))
    assert code == 0
    assert "value = 2/9" in out


def test_nature_rule_naming_no_chance_point(capsys, tmp_path):
    # a misspelt key used to leave the coin uniform (value 1/4, exit 0)
    typo = tmp_path / "typo.nat"
    typo.write_text("zz : 0 -> 1/3, 1 -> 2/3\n")
    code, out, err = run(capsys, "value",
                         corpus_path("stochastic_matching_pennies.if"),
                         corpus_path("binary.struct"), "--nature", str(typo))
    assert (code, out) == (1, "")
    assert err == ("error: rule at line 1 is keyed by 'zz', which names no "
                   "chance point of the game\n")


def test_nature_occurrence_key(capsys, tmp_path):
    sentence = tmp_path / "coin.if"
    sentence.write_text("forall x ((x = x) >< (x != x))\n")
    nature = tmp_path / "coin.nat"
    nature.write_text("@/0 : L -> 1/3, R -> 2/3\n")
    argv = ["value", str(sentence), corpus_path("binary.struct"),
            "--nature", str(nature)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("value = 1/3\n")
    # a key naming no occurrence used to leave the coin uniform (value 1/2)
    nature.write_text("@/1 : L -> 1/3, R -> 2/3\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "keyed by '@/1'" in err


def test_structure_declared_twice(capsys, tmp_path):
    # the last definition used to win silently (value 0, exit 0)
    sentence = tmp_path / "c.if"
    sentence.write_text("c = 1\n")
    structure = tmp_path / "c.struct"
    structure.write_text("universe 1 2\nconst c = 1\nconst c = 2\n")
    code, out, err = run(capsys, "value", str(sentence), str(structure))
    assert (code, out, err) == (1, "", "error: 3:1: constant c declared twice\n")


def test_nullary_function_names_its_value(capsys, tmp_path):
    # a bare c used to read only the constants and the universe, so this
    # exited 1 with "structure not suitable: constant c uninterpreted"
    sentence = tmp_path / "c.if"
    sentence.write_text("exists y (y = c)\n")
    structure = tmp_path / "c.struct"
    structure.write_text("universe 1 2\nfunc c/0: () -> 1\n")
    code, out, _ = run(capsys, "value", str(sentence), str(structure))
    assert code == 0
    assert "value = 1" in out.splitlines()
    assert "  1  @/[] -> 1" in out.splitlines()
    code, out, _ = run(capsys, "condition", str(sentence), str(structure),
                       "--solve", "--event", "y = c")
    assert code == 0
    assert "conditional value = 1" in out.splitlines()
    # an application takes at least one argument
    sentence.write_text("exists y (y = c())\n")
    code, out, err = run(capsys, "value", str(sentence), str(structure))
    assert (code, out, err) == (1, "", "error: 1:17: expected a term, found ')'\n")


def test_suitability_is_checked_before_the_node_cap(capsys):
    # an unsuitable structure is a diagnostic (exit 1), not a budget (exit 2)
    code, out, err = run(capsys, "value", corpus_path("phi_sb.if"),
                         corpus_path("doors3.struct"), "--node-cap", "1")
    assert (code, out) == (1, "")
    assert err == "error: structure not suitable: relation Awake uninterpreted\n"


def test_game_file_node_cap(capsys):
    # --node-cap acts on a .game file too: monty_hall.game has 49 nodes
    game = corpus_path("monty_hall.game")
    code, out, err = run(capsys, "value", game, "--node-cap", "48")
    assert (code, out) == (2, "")
    assert err == "error: game node budget exceeded: limit 48, reached 49\n"
    code, out, _ = run(capsys, "value", game, "--node-cap", "49")
    assert code == 0
    assert "value = 2/3" in out.splitlines()


def test_simulate_negative_seed(capsys):
    args = ("simulate", corpus_path("phi_mh_prime_chance.if"),
            corpus_path("doors3.struct"),
            "--profile", corpus_path("mh_prime_chance_paper.profile"),
            "--plays", "1000")
    code, out, err = run(capsys, *args, "--seed=-5")
    assert (code, out, err) == (1, "", "error: seed must be non-negative\n")
    code, out, _ = run(capsys, *args, "--seed", "5")
    assert code == 0
    assert "plays = 1000, seed = 5" in out.splitlines()


CHANCE_GAME = """\
player=chance info=c
  action=a p=1/4 player=I info=i
    action=l win=I
    action=r win=II
  action=b p=3/4 player=I info=i
    action=l win=II
    action=r win=I
"""


def test_nature_uniform_overrides_declared_chance(capsys, tmp_path):
    game = tmp_path / "biased.game"
    game.write_text(CHANCE_GAME)
    code, out, _ = run(capsys, "value", str(game))
    assert code == 0
    assert "value = 3/4" in out
    code, out, _ = run(capsys, "value", str(game), "--nature", "uniform")
    assert code == 0
    assert "value = 1/2" in out


def test_nature_rule_keyed_by_declared_label(capsys, tmp_path):
    game = tmp_path / "biased.game"
    game.write_text(CHANCE_GAME)
    nature = tmp_path / "c.nat"
    nature.write_text("c : a -> 1/3, b -> 2/3\n")
    code, out, _ = run(capsys, "value", str(game), "--nature", str(nature))
    assert code == 0
    assert "value = 2/3" in out


def test_budget_error_exit_code_two(capsys):
    code, out, err = run(capsys, "value", corpus_path("phi_mh.if"),
                         corpus_path("doors3.struct"), "--budget", "1")
    assert code == 2
    assert "budget" in err


def test_strategy_budget_diagnostics(capsys):
    # settled, phi_mh's verifier still has more than 5 strategies
    code, out, err = run(capsys, "value", corpus_path("phi_mh.if"),
                         corpus_path("doors3.struct"), "--budget", "5")
    assert (code, out) == (2, "")
    assert err == "error: strategy budget exceeded: limit 5, reached 6\n"
    # on the unsettled trees: the falsifier of the chance Monty Hall
    # sentence passes the default budget at its last information set;
    # phi_mh's verifier passes 1000 part way through its enumeration
    doors3 = corpus_text("doors3.struct")
    for name, budget, reached in [
        ("phi_mh_prime_chance.if", 10**6, "limit 1000000, reached 1048576"),
        ("phi_mh.if", 1000, "limit 1000, reached 1088"),
        ("phi_mh.if", 823874, "limit 823874, reached 823875"),
    ]:
        game, lam = load_game(corpus_text(name), doors3)
        with pytest.raises(BudgetError) as exc:
            solver.build_matrix(game, lam, budget)
        assert str(exc.value) == f"strategy budget exceeded: {reached}"


def test_cell_budget_exit_code_two(capsys, monkeypatch):
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 3)
    code, _, err = run(capsys, "value", corpus_path("matching_pennies.if"),
                       corpus_path("pennies_2.struct"))
    assert code == 2
    assert "payoff cell budget exceeded: limit 3, reached 4" in err


def test_follow_cell_budget_exit_code_two(capsys, monkeypatch):
    # on the settled tree, 2 x 1 payoff cells pass the budget; the 2 x 4
    # follow table does not (unsettled, 31 x 1 and 31 x 5)
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 7)
    code, _, err = run(capsys, "value", corpus_path("phi_sb.if"),
                       corpus_path("sleeping_beauty.struct"))
    assert code == 2
    assert "follow cell budget exceeded: limit 7, reached 8" in err
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 31)
    game, lam = load_game(corpus_text("phi_sb.if"),
                          corpus_text("sleeping_beauty.struct"))
    with pytest.raises(BudgetError, match="follow cell budget exceeded: "
                                          "limit 31, reached 155"):
        solver.build_matrix(game, lam)


def test_sampler_cell_budget_exit_code_two(capsys, monkeypatch):
    # the action table: 2 strategies (one per mix) x (5 verifier sets + 1)
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 11)
    code, out, err = run(capsys, "simulate", corpus_path("phi_sb.if"),
                         corpus_path("sleeping_beauty.struct"),
                         "--profile", corpus_path("sb_tails.profile"))
    assert (code, out) == (2, "")
    assert "sampler cell budget exceeded: limit 11, reached 12" in err


def test_sampler_landing_budget_exit_code_two(capsys, monkeypatch):
    # the action table holds 12 cells; the landing table 1 pair x 45 entries
    args = ("simulate", corpus_path("phi_sb.if"),
            corpus_path("sleeping_beauty.struct"),
            "--profile", corpus_path("sb_tails.profile"), "--plays", "10")
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 44)
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert "sampler cell budget exceeded: limit 44, reached 45" in err
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 45)
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")


def _wide_set(tmp_path, n):
    """``exists y (y = n)`` on the universe 1..n: one verifier set of n
    actions, of which the last wins."""
    formula, universe = tmp_path / "last.if", tmp_path / "wide.struct"
    formula.write_text(f"exists y (y = {n})\n")
    universe.write_text("universe " + " ".join(map(str, range(1, n + 1))) + "\n")
    return str(formula), str(universe)


def test_set_wider_than_int16(capsys, tmp_path):
    wide = _wide_set(tmp_path, 32_769)
    code, out, _ = run(capsys, "value", *wide)
    assert code == 0
    assert "value = 1" in out.splitlines()
    assert "  1  @/[] -> 32769" in out.splitlines()
    code, out, _ = run(capsys, "condition", *wide, "--solve")
    assert code == 0
    assert "conditional value = 1" in out.splitlines()


def test_sampler_cell_budget_on_a_wide_set(capsys, tmp_path):
    # 40,001 nodes: the flat child list holds 80,001 entries, and the action
    # table 2 x 2 cells, where padding every node to the widest would take
    # 3,200,080,000 cells
    code, out, err = run(capsys, "simulate", *_wide_set(tmp_path, 40_000),
                         "--solve", "--plays", "10000")
    assert (code, err) == (0, "")
    assert "wins = 10000  (frequency 1)" in out.splitlines()


def test_nonpositive_cap_exit_code_one(capsys):
    code, _, err = run(capsys, "value", corpus_path("phi_mh.if"),
                       corpus_path("doors3.struct"), "--budget", "0")
    assert code == 1
    assert "error: caps, budgets and play counts must be positive" in err



def test_usage_errors_exit_code_one(capsys):
    # argparse exits 2 on a usage error; here 2 means an exceeded budget
    mh = (corpus_path("phi_mh.if"), corpus_path("doors3.struct"))
    for argv, message in [
        (["value"], "the following arguments are required: input"),
        (["value", *mh, "--budget", "abc"],
         "argument --budget: invalid positive_int value: 'abc'"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: ifgames value")
        assert message in err


def test_help_exit_code_zero(capsys):
    for argv in (["--help"], ["value", "--help"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: ifgames")


def test_parse_error_exit_code_one(capsys, tmp_path):
    bad = tmp_path / "bad.if"
    bad.write_text("R(x) garbage")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 1
    assert "error" in err


def test_missing_structure_is_diagnostic(capsys):
    code, _, err = run(capsys, "value", corpus_path("phi_mh.if"))
    assert code == 1
    assert "structure" in err


@pytest.mark.parametrize("argv", [
    ("value", corpus_path("phi_mh.if"), corpus_path("doors3.struct")),
    ("parse", corpus_path("phi_mh.if")),
])
def test_closed_stdout_exits_one_quietly(argv):
    with subprocess.Popen([sys.executable, "-m", "ifgames.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        p.stdout.close()
        err = p.stderr.read()
    assert (p.returncode, err) == (1, b"")


def test_missing_input_file_is_diagnostic(capsys, tmp_path):
    code, out, err = run(capsys, "value", str(tmp_path / "absent.if"),
                         corpus_path("doors3.struct"))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] No such file or directory")


def test_game_input_refuses_a_structure(capsys):
    for command in ("value", "export"):
        code, out, err = run(capsys, command, corpus_path("monty_hall.game"),
                             corpus_path("doors3.struct"))
        assert (code, out) == (1, "")
        assert err == "error: a .game input takes no structure file\n"


def test_parse_echoes_canonical(capsys):
    code, out, _ = run(capsys, "parse", corpus_path("phi_mh.if"))
    assert code == 0
    assert out.strip() == ("forall x (exists y/{x}) forall z "
                           "(((z = x) \\/ (z = y)) \\/ (exists y/{x}) (x = y))")


def test_condition_sleeping_beauty(capsys):
    code, out, _ = run(capsys, "condition", corpus_path("phi_sb.if"),
                       corpus_path("sleeping_beauty.struct"),
                       "--profile", corpus_path("sb_heads.profile"),
                       "--event", "Awake(x,t)")
    assert code == 0
    assert "P(event) = 3/4" in out
    assert "conditional value = 1/3" in out


def test_condition_solve_profile(capsys):
    code, out, _ = run(capsys, "condition", corpus_path("phi_sb.if"),
                       corpus_path("sleeping_beauty.struct"), "--solve",
                       "--event", "Awake(x,t)")
    assert code == 0
    assert "conditional value = 2/3" in out  # equilibrium plays Tails


def test_condition_without_event_is_the_whole_space(capsys):
    code, out, err = run(capsys, "condition", corpus_path("monty_hall.game"),
                         "--solve")
    assert code == 0, err
    assert out.splitlines() == ["P(event) = 1", "P(win and event) = 2/3",
                                "conditional value = 2/3"]
    code, out, _ = run(capsys, "condition", corpus_path("monty_hall.game"),
                       "--solve", "--format", "structured")
    assert code == 0
    assert json.loads(out)["event"] == "true"


def test_empty_event_is_a_parse_error(capsys):
    for command in ("condition", "simulate"):
        code, out, err = run(capsys, command, corpus_path("monty_hall.game"),
                             "--solve", "--event", "")
        assert (code, out) == (1, ""), command
        assert "expected a term" in err


def test_solver_flags_need_solve(capsys):
    sb = (corpus_path("phi_sb.if"), corpus_path("sleeping_beauty.struct"))
    for command in (["condition", *sb, "--event", "Awake(x,t)"],
                    ["simulate", *sb, "--plays", "10"]):
        code, out, err = run(capsys, *command, "--profile",
                             corpus_path("sb_heads.profile"), "--budget", "1")
        assert (code, out) == (1, "")
        assert "--budget acts only with --solve" in err
        code, _, err = run(capsys, *command, "--solve", "--budget", "1")
        assert code == 2, err


def test_condition_bad_event_element(capsys):
    code, _, err = run(capsys, "condition", corpus_path("phi_sb.if"),
                       corpus_path("sleeping_beauty.struct"), "--solve",
                       "--event", "x = 9")
    assert code == 1
    assert "9" in err


def test_condition_unknown_name_on_game_input(capsys):
    # a .game input has no universe, so no name there is an element
    code, _, err = run(capsys, "condition", corpus_path("monty_hall.game"),
                       "--solve", "--event", "x = 1")
    assert code == 1
    assert "'x' is neither a game variable" in err
    assert "probability zero" not in err


def test_condition_bad_profile_mass(capsys, tmp_path):
    profile = tmp_path / "bad.profile"
    profile.write_text("row 1/0 { }\n")
    code, _, err = run(capsys, "condition", corpus_path("phi_sb.if"),
                       corpus_path("sleeping_beauty.struct"),
                       "--profile", str(profile), "--event", "Awake(x,t)")
    assert code == 1
    assert "bad mass '1/0'" in err


def test_corpus_filter(capsys):
    code, out, _ = run(capsys, "corpus", "--filter", "sleeping")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)
    assert all("sleeping" in l for l in lines)


def test_corpus_structured_matches_text(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    summary = out.splitlines()[-1]
    code, out, _ = run(capsys, "corpus", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert all(entry["passed"] and entry["error"] is None for entry in payload)
    assert summary == f"{len(payload)}/{len(payload)} corpus checks passed"


def test_corpus_filter_matching_nothing(capsys):
    code, out, err = run(capsys, "corpus", "--filter", "zzz")
    assert (code, out) == (1, "")
    assert "no corpus entry matches --filter 'zzz'" in err


def test_export_dot(capsys, tmp_path):
    out_file = tmp_path / "game.dot"
    code, _, _ = run(capsys, "export", corpus_path("matching_pennies.if"),
                     corpus_path("pennies_2.struct"), "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("digraph") and "style=dotted" in text



def test_export_rejects_solver_flags(capsys):
    # export builds the game only; it has no budget, reduction or format
    pennies = (corpus_path("matching_pennies.if"), corpus_path("pennies_2.struct"))
    for flags in (["--format", "structured"], ["--budget", "5"],
                  ["--no-weak-dominance"]):
        code, out, err = run(capsys, "export", *pennies, *flags)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {' '.join(flags)}" in err


def test_simulate_structured_stable(capsys):
    args = ("simulate", corpus_path("phi_sb.if"),
            corpus_path("sleeping_beauty.struct"),
            "--profile", corpus_path("sb_tails.profile"),
            "--plays", "500", "--seed", "11",
            "--event", "Awake(x,t)", "--format", "structured")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["plays"] == 500
    assert payload["events"]["Awake(x,t)"]["hits"] > 0


def test_parser_reused_without_events(capsys):
    # one parser serves every call in a process; a call without --event
    # tallies no event that an earlier call asked for
    assert build_arg_parser() is build_arg_parser()
    args = ("simulate", corpus_path("phi_sb.if"),
            corpus_path("sleeping_beauty.struct"),
            "--profile", corpus_path("sb_tails.profile"),
            "--plays", "50", "--format", "structured")
    code, out, _ = run(capsys, *args, "--event", "Awake(x,t)",
                       "--event", "t = 1")
    assert code == 0
    assert sorted(json.loads(out)["events"]) == ["Awake(x,t)", "t = 1"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["events"] == {}


def test_value_structured_stable(capsys):
    args = ("value", corpus_path("phi_sb_prime.if"),
            corpus_path("sleeping_beauty.struct"), "--format", "structured")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1)["value"] == "1/2"
