"""Self-tests for the equivalence harness (``repro.tools.equivalence``):
its registry is the CLI's, its diff and guards can fail, and the whole
experiment x axis grid plus every trip proof holds on this tree."""

import pytest

from repro.__main__ import EXPERIMENTS
from repro.tools import equivalence
from repro.tools.equivalence import (
    AXES,
    REGISTRY,
    Observation,
    diff,
    dpjit_dispatched,
    ebpf_ran,
    nonempty,
    observe,
)


def test_every_registry_key_is_a_cli_experiment():
    assert set(REGISTRY) <= set(EXPERIMENTS)


def test_diff_reports_a_different_run():
    a = observe("fig9", packets=300)
    b = observe("fig9", packets=400)
    assert diff(a, a) is None
    assert diff(a, b) is not None
    assert diff(a, b, ledger_only=True) is not None


@pytest.mark.parametrize("guard", [nonempty, ebpf_ran, dpjit_dispatched])
def test_each_guard_rejects_an_empty_observation(guard):
    empty = Observation(ledger="", counters={}, flame="")
    assert guard(REGISTRY["fig2"], empty) is not None


def test_every_axis_guards_against_an_empty_run():
    assert all(nonempty in axis.guards for axis in AXES.values())


def test_main_passes_on_this_tree(capsys):
    assert equivalence.main() == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(REGISTRY) * len(AXES) + len(equivalence.TRIPS)
    assert all(row.endswith("OK") for row in rows)
