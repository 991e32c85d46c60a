"""The chaos check table: each drill runs alone, by name."""

import pytest

from repro.resilience.chaos import CHAOS_CHECKS, NEEDS_FORK, run_chaos


def test_table_names_every_include_key():
    assert list(CHAOS_CHECKS) == [
        "kill", "hang", "slow", "signal", "stream", "campaign", "dirty",
        "ladder", "elastic", "serve", "fleet",
    ]
    assert NEEDS_FORK < set(CHAOS_CHECKS)


@pytest.mark.parametrize("name, verdicts", [
    ("dirty", 2),   # strict reject + repair
    ("ladder", 1),
    ("stream", 1),
])
def test_cheap_check_passes_alone(name, verdicts, capsys):
    results = run_chaos([name], n=6, seed=7)
    assert len(results) == verdicts
    for label, ok, detail in results:
        assert label.startswith(f"{name}: ")
        assert ok, (label, detail)
    assert capsys.readouterr().out.count("[PASS]") == verdicts


def test_checks_run_in_table_order(capsys):
    results = run_chaos(["ladder", "dirty"], n=6, seed=7)
    assert [label.split(":")[0] for label, _, _ in results] == [
        "dirty", "dirty", "ladder",
    ]


def test_unknown_name_rejected_before_any_work(capsys):
    with pytest.raises(ValueError, match=r"unknown chaos check\(s\) nope"):
        run_chaos(["dirty", "nope"], n=6, seed=7)
    assert capsys.readouterr().out == ""
