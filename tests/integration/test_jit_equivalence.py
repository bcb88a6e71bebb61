"""JIT observability gates at full-experiment scale.

The JIT's contract is that compiled execution is invisible to every
observable: for each experiment (fig2, fig9, table2, table5) a run with
the JIT enabled must produce the byte-identical trace ledger, the same
counter map, and the byte-identical collapsed-stack flamegraph as a run
with the JIT disabled (interpreter + verdict memo).  table5 — the
all-XDP workload, where virtually every charged nanosecond flows
through the engine under test — is additionally pinned against the full
reference mode (no fastpath layers at all).
"""

import pytest

from repro.ebpf import jit
from repro.ovs import dpjit
from repro.tools.equivalence import AXES, REGISTRY, observe, reference_mode


@pytest.mark.parametrize("experiment", sorted(REGISTRY))
def test_jit_run_is_byte_identical_to_interpreter_run(experiment):
    on = observe(experiment)
    off = observe(experiment, AXES["ebpf_jit_off"])
    assert on.ledger == off.ledger
    assert on.counters == off.counters
    assert on.flame == off.flame
    # Sanity: the gate compares something real.
    assert on.ledger and on.flame
    assert on.counters.get("ebpf.runs", 0) > 0


def test_table5_jit_matches_full_reference_mode():
    """table5 was not covered by PR 2's batched-vs-reference gates; the
    JIT-on ledger must match a run with every fastpath layer stripped."""
    on = observe("table5")
    with reference_mode():
        ref = observe("table5")
    assert on.ledger == ref.ledger
    assert on.counters == ref.counters


@pytest.mark.parametrize("experiment", sorted(REGISTRY))
def test_dpjit_run_is_byte_identical_to_generic_walk(experiment):
    """Same contract for the megaflow dp-JIT: compiled action closures
    must be invisible to the ledger, counters, and flames."""
    on = observe(experiment)
    off = observe(experiment, AXES["dpjit_off"])
    assert on.ledger == off.ledger
    assert on.counters == off.counters
    assert on.flame == off.flame
    assert on.ledger and on.flame
    if REGISTRY[experiment].dpif:
        # table5 is pure XDP — no DpifNetdev, so no dp dispatch there.
        assert on.dpjit_dispatched > 0


def test_dpjit_actually_compiled_the_dp_experiments():
    """Vacuousness guard: fig2's datapath flows must run through
    compiled closures, not fall back to the generic walk."""
    dpjit.reset_stats()
    REGISTRY["fig2"].run()
    s = dpjit.STATS
    assert s.compiled > 0 and s.dispatched > 0, (
        s.compiled, s.declined, s.dispatched, s.decline_reasons)


def test_jit_actually_ran_the_experiments():
    """Guard against the gate passing vacuously because every run fell
    back to the interpreter: table5's four programs must all execute
    through compiled code with zero declines."""
    jit.reset_stats()
    REGISTRY["table5"].run()
    stats = jit.stats()
    ran = {name: st for name, st in stats.items() if st.jit_runs}
    assert len(ran) >= 4, stats
    assert all(st.declined is None for st in stats.values()), stats
