"""Built-in corpus: every number the source problems fix, as a regression.

Each entry names bundled data files and the exact rational it must
reproduce, either a game value or conditional win probabilities under a
pinned profile.  ``run_corpus`` replays them all and reports pass/fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import IfGameError
from .game import DEFAULT_NODE_CAP
from .parser import load_game, parse_event, parse_profile
from .solver import conditional_value, solve
from .strategy import DEFAULT_STRATEGY_BUDGET

F = Fraction


@dataclass(frozen=True)
class ConditionalQuery:
    profile: str  # bundled profile file
    event: str
    expected: Fraction


@dataclass(frozen=True)
class CorpusCheck:
    structure: str | None = None  # bundled .struct file; None for .game entries
    nature: str | None = None  # bundled .nat file; None means uniform/embedded
    expected: Fraction | None = None  # game value; None skips the solve
    queries: tuple[ConditionalQuery, ...] = ()


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    group: str  # "paper" or "classical"
    formula: str | None = None  # bundled .if file
    game: str | None = None  # bundled .game file
    checks: tuple[CorpusCheck, ...] = ()


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "monty-hall-game", "paper", game="monty_hall.game",
        checks=(CorpusCheck(expected=F(2, 3)),),
    ),
    CorpusEntry(
        "monty-hall", "paper", formula="phi_mh.if",
        checks=(CorpusCheck("doors3.struct", expected=F(2, 3)),),
    ),
    CorpusEntry(
        "monty-hall-no-offer", "paper", formula="phi_mh_prime.if",
        checks=(CorpusCheck("doors3.struct", expected=F(1, 3)),),
    ),
    CorpusEntry(
        "monty-hall-indifferent", "paper", formula="phi_mh_chance.if",
        checks=(CorpusCheck("doors3.struct", expected=F(7, 9)),),
    ),
    CorpusEntry(
        "monty-hall-indifferent-no-offer", "paper",
        formula="phi_mh_prime_chance.if",
        checks=(
            # By hand: the verifier wins when x = y = z by taking the left
            # disjunct, mass 1/9.  When z = x != y or z = y != x the
            # falsifier takes the false conjunct and wins.  Otherwise play
            # reaches the second (exists y/{x}) with z != y, and the prize
            # is at y or at the third door with mass 1/9 each, so either
            # choice wins 1/9 for each of the two doors z != y: 1/9 + 2/9.
            CorpusCheck(
                "doors3.struct", expected=F(1, 3),
                queries=(
                    ConditionalQuery("mh_prime_chance_paper.profile",
                                     "z != x and z != y#1 and y = y#1", F(1, 2)),
                    ConditionalQuery("mh_prime_chance_paper.profile",
                                     "z != x and z != y#1 and y != y#1", F(1, 2)),
                ),
            ),
        ),
    ),
    CorpusEntry(
        "matching-pennies", "paper", formula="matching_pennies.if",
        checks=tuple(
            CorpusCheck(f"pennies_{n}.struct", expected=F(1, n))
            for n in (2, 3, 4, 5)
        ),
    ),
    CorpusEntry(
        "stochastic-matching-pennies", "paper",
        formula="stochastic_matching_pennies.if",
        checks=(CorpusCheck("binary.struct", "biased_coin.nat", F(2, 9)),),
    ),
    CorpusEntry(
        "sleeping-beauty", "paper", formula="phi_sb.if",
        checks=(
            CorpusCheck(
                "sleeping_beauty.struct", expected=F(3, 4),
                queries=(
                    ConditionalQuery("sb_heads.profile", "Awake(x,t)", F(1, 3)),
                    ConditionalQuery("sb_even.profile", "Awake(x,t)", F(1, 2)),
                    ConditionalQuery("sb_tails.profile", "Awake(x,t)", F(2, 3)),
                ),
            ),
        ),
    ),
    CorpusEntry(
        "sleeping-beauty-universal", "paper", formula="phi_sb_prime.if",
        checks=(
            CorpusCheck(
                "sleeping_beauty.struct", expected=F(1, 2),
                queries=(
                    ConditionalQuery("sbp_q1.profile", "t = 1", F(1, 2)),
                    ConditionalQuery("sbp_p0_qhalf.profile", "t = 1", F(1, 3)),
                ),
            ),
        ),
    ),
    # ten slash-free, chance-free sentences pinned to classical truth values
    CorpusEntry("copycat", "classical", formula="classical_true_copycat.if",
                checks=(CorpusCheck("doors3.struct", expected=F(1)),)),
    CorpusEntry("lone-element", "classical",
                formula="classical_false_lone_element.if",
                checks=(CorpusCheck("doors3.struct", expected=F(0)),)),
    CorpusEntry("some-heads", "classical", formula="classical_true_some_heads.if",
                checks=(CorpusCheck("sleeping_beauty.struct", expected=F(1)),)),
    CorpusEntry("heads-or-tails", "classical",
                formula="classical_true_heads_or_tails.if",
                checks=(CorpusCheck("sleeping_beauty.struct", expected=F(1)),)),
    CorpusEntry("some-sleeping", "classical",
                formula="classical_true_some_sleeping.if",
                checks=(CorpusCheck("sleeping_beauty.struct", expected=F(1)),)),
    CorpusEntry("always-awake", "classical",
                formula="classical_false_always_awake.if",
                checks=(CorpusCheck("sleeping_beauty.struct", expected=F(0)),)),
    CorpusEntry("tails-always-awake", "classical",
                formula="classical_true_tails_always_awake.if",
                checks=(CorpusCheck("sleeping_beauty.struct", expected=F(1)),)),
    CorpusEntry("sleeper-every-day", "classical",
                formula="classical_false_sleeper_every_day.if",
                checks=(CorpusCheck("sleeping_beauty.struct", expected=F(0)),)),
    CorpusEntry("heads-is-monday", "classical",
                formula="classical_true_heads_is_monday.if",
                checks=(CorpusCheck("sleeping_beauty.struct", expected=F(1)),)),
    CorpusEntry("tails-monday", "classical",
                formula="classical_false_tails_monday.if",
                checks=(CorpusCheck("sleeping_beauty.struct", expected=F(0)),)),
)


def corpus_text(filename: str) -> str:
    return (resources.files("ifgames") / "corpus" / filename).read_text()


@dataclass
class CheckResult:
    entry: str
    group: str
    label: str
    expected: Fraction
    got: Fraction | None
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.got == self.expected


def _check(entry: CorpusEntry, label: str, expected: Fraction,
           compute) -> CheckResult:
    """Run one check; a diagnostic becomes a failed result."""
    try:
        return CheckResult(entry.name, entry.group, label, expected, compute())
    except IfGameError as exc:
        return CheckResult(entry.name, entry.group, label, expected, None, str(exc))


def run_corpus(name_filter: str | None = None, *,
               node_cap: int = DEFAULT_NODE_CAP,
               budget: int = DEFAULT_STRATEGY_BUDGET) -> list[CheckResult]:
    """Replay the corpus.  A diagnostic (:class:`IfGameError`) becomes a
    failed check and the replay goes on; any other exception is a bug and
    propagates."""
    results: list[CheckResult] = []
    for entry in CORPUS:
        if name_filter and name_filter not in entry.name:
            continue
        for check in entry.checks:
            where = check.structure or entry.game or ""
            try:
                game, lam = load_game(
                    corpus_text(entry.game or entry.formula),
                    check.structure and corpus_text(check.structure),
                    check.nature and corpus_text(check.nature), node_cap)
            except IfGameError as exc:
                results.append(CheckResult(entry.name, entry.group, where,
                                           check.expected or F(0), None, str(exc)))
                continue
            if check.expected is not None:
                results.append(_check(
                    entry, f"value on {where}", check.expected,
                    lambda: solve(game, lam, budget).value))
            for q in check.queries:
                results.append(_check(
                    entry, f"P(win | {q.event})", q.expected,
                    lambda: conditional_value(
                        game, lam, *parse_profile(corpus_text(q.profile), game),
                        parse_event(q.event, game)).value))
    return results
