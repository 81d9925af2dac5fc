"""End-to-end command-line checks: subcommands, exit codes, stable output."""

import json
from importlib import resources

from ifgames import solver
from ifgames.cli import main


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


def test_value_with_nature_file(capsys):
    code, out, _ = run(capsys, "value",
                       corpus_path("stochastic_matching_pennies.if"),
                       corpus_path("binary.struct"),
                       "--nature", corpus_path("biased_coin.nat"))
    assert code == 0
    assert "value = 2/9" in out


def test_budget_error_exit_code_two(capsys):
    code, out, err = run(capsys, "value", corpus_path("phi_mh.if"),
                         corpus_path("doors3.struct"), "--budget", "1")
    assert code == 2
    assert "budget" in err


def test_strategy_budget_diagnostics(capsys):
    # the falsifier of the chance Monty Hall sentence passes the default
    # budget at its last information set; phi_mh's verifier passes 1000
    # part way through its enumeration
    for argv, reached in [
        (["phi_mh_prime_chance.if", "doors3.struct"], "limit 1000000, reached 1048576"),
        (["phi_mh.if", "doors3.struct", "--budget", "1000"], "limit 1000, reached 1088"),
        (["phi_mh.if", "doors3.struct", "--budget", "823874"],
         "limit 823874, reached 823875"),
    ]:
        code, out, err = run(capsys, "value", *map(corpus_path, argv[:2]), *argv[2:])
        assert (code, out) == (2, "")
        assert err == f"error: strategy budget exceeded: {reached}\n"


def test_cell_budget_exit_code_two(capsys, monkeypatch):
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 3)
    code, _, err = run(capsys, "value", corpus_path("matching_pennies.if"),
                       corpus_path("pennies_2.struct"))
    assert code == 2
    assert "payoff cell budget exceeded: limit 3, reached 4" in err


def test_follow_cell_budget_exit_code_two(capsys, monkeypatch):
    # 31 x 1 payoff cells pass the budget; the 31 x 5 follow table does not
    monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 31)
    code, _, err = run(capsys, "value", corpus_path("phi_sb.if"),
                       corpus_path("sleeping_beauty.struct"))
    assert code == 2
    assert "follow cell budget exceeded: limit 31, reached 155" in err


def test_nonpositive_cap_exit_code_one(capsys):
    code, _, err = run(capsys, "value", corpus_path("phi_mh.if"),
                       corpus_path("doors3.struct"), "--budget", "0")
    assert code == 1
    assert "error: caps, budgets and play counts must be positive" in err


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


def test_condition_bad_event_element(capsys):
    code, _, err = run(capsys, "condition", corpus_path("phi_sb.if"),
                       corpus_path("sleeping_beauty.struct"), "--solve",
                       "--event", "x = 9")
    assert code == 1
    assert "9" in err


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


def test_export_dot(capsys, tmp_path):
    out_file = tmp_path / "game.dot"
    code, _, _ = run(capsys, "export", corpus_path("matching_pennies.if"),
                     corpus_path("pennies_2.struct"), "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("digraph") and "style=dotted" in text


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


def test_value_structured_stable(capsys):
    args = ("value", corpus_path("phi_sb_prime.if"),
            corpus_path("sleeping_beauty.struct"), "--format", "structured")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1)["value"] == "1/2"
