"""Trace regression gates: byte-identical ledgers across identical runs
and cost conservation on real experiment runs (the acceptance bar for
the observability layer).

The batched-vs-reference gates additionally pin the burst classifier's
observational-equivalence contract at full-experiment scale: running an
experiment with batching plus every wall-clock memo layer must produce
the byte-identical trace ledger the per-packet reference path produces.
"""

import pytest

from repro.sim import trace
from repro.tools.equivalence import AXES, REGISTRY, observe, reference_mode

DP_EXPERIMENTS = ("fig2", "fig9", "table2")


def _ledger(experiment: str, packets=None) -> str:
    return observe(experiment, AXES["trace_only"], packets).ledger


def test_fig9_ledgers_are_byte_identical():
    assert _ledger("fig9") == _ledger("fig9")


@pytest.mark.parametrize("experiment,packets",
                         [(e, REGISTRY[e].packets) for e in DP_EXPERIMENTS])
def test_batched_ledger_matches_reference(experiment, packets):
    batched = _ledger(experiment, packets)
    with reference_mode():
        reference = _ledger(experiment, packets)
    assert batched == reference


def test_ledger_differs_when_the_run_differs():
    # Sanity for the regression above: the ledger is not trivially empty
    # or constant.
    a, b = _ledger("fig9", packets=300), _ledger("fig9", packets=400)
    assert a and b and a != b


@pytest.mark.parametrize("experiment", DP_EXPERIMENTS)
def test_experiment_runs_conserve_cost(experiment):
    with trace.recording() as rec:
        REGISTRY[experiment].run()
    assert rec.total_ns > 0
    assert rec.conserved(), (
        f"{experiment}: spans {rec.total_ns!r} ns != "
        f"cpu {rec.cpu_charged_ns!r} ns"
    )
