"""The bundled corpus replays green, and mismatches are reported loudly."""

import dataclasses
from fractions import Fraction

import pytest

from ifgames.corpus import CORPUS, run_corpus


def test_full_corpus_passes():
    results = run_corpus()
    assert results, "corpus must not be empty"
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    paper = {r.entry for r in results if r.group == "paper"}
    # eight sentence entries plus the hand-built game entry
    assert len(paper) == 9
    classical = {r.entry for r in results if r.group == "classical"}
    assert len(classical) == 10


def test_corpus_filter_selects_substring():
    results = run_corpus("matching")
    assert results
    assert all("matching" in r.entry for r in results)


def test_corrupted_expected_value_fails(monkeypatch):
    import ifgames.corpus as corpus_mod
    entry = next(e for e in CORPUS if e.name == "matching-pennies")
    bad_checks = tuple(
        dataclasses.replace(c, expected=Fraction(9, 10)) for c in entry.checks)
    bad = dataclasses.replace(entry, checks=bad_checks)
    patched = tuple(bad if e.name == entry.name else e for e in CORPUS)
    monkeypatch.setattr(corpus_mod, "CORPUS", patched)
    results = run_corpus("matching-pennies")
    broken = [r for r in results if r.entry == "matching-pennies"]
    assert broken and all(not r.passed for r in broken)

    from ifgames.cli import main
    assert main(["corpus", "--filter", "matching-pennies"]) == 1


def test_bug_in_pipeline_propagates(monkeypatch):
    # only diagnostics become FAIL rows; anything else is a bug to surface
    import ifgames.solver as solver_mod

    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(solver_mod, "build_matrix", broken)
    with pytest.raises(RuntimeError, match="bug"):
        run_corpus("matching-pennies")
