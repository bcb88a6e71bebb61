"""Observational equivalence: batched classification vs the reference path.

The burst classifier (``_classify_execute_burst``) must be
indistinguishable from the retained per-packet reference path
(``_process_one``) in every observable: transmitted bytes, pipeline
stats, cache counters, the *exact* virtual-time floats (local time and
per-(cpu, category) busy time — float addition is order-sensitive, so
equality here proves the charge sequence itself is identical), and the
trace ledger.  Hypothesis drives random bursts through twin datapaths
with a deliberately tiny EMC so displacement churn keeps invalidating
the cross-burst flow cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import MacAddress
from repro.net.builder import make_udp_packet
from repro.net.flow import mask_from_fields
from repro.ovs import dpif_netdev, odp
from repro.ovs.dpif_netdev import DpifNetdev
from repro.ovs.emc import ExactMatchCache
from repro.ovs.netdevs import SimAdapter
from repro.sim import trace
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext

#: Destination pool: the low byte selects the upcall outcome below, so
#: generated traffic exercises drop, single-output and multi-output
#: translations side by side.
DSTS = [f"10.1.0.{i}" for i in range(1, 9)]
MASK = mask_from_fields(eth_type=-1, nw_dst=-1)


def _make_world():
    dpif = DpifNetdev()
    rx = SimAdapter()
    out_a = SimAdapter()
    out_b = SimAdapter()
    p_rx = dpif.add_port("rx", rx)
    p_a = dpif.add_port("a", out_a)
    p_b = dpif.add_port("b", out_b)

    def upcall(key, ctx):
        last = key.nw_dst & 0xFF
        if last % 5 == 0:
            return None  # translation failure -> drop
        if last % 3 == 0:
            # Two outputs: forces the generic _execute path (no
            # single_out shortcut).
            return ((odp.Output(p_a.port_no), odp.Output(p_b.port_no)),
                    MASK)
        if last % 2 == 0:
            return ((odp.Output(p_b.port_no),), MASK)
        return ((odp.Output(p_a.port_no),), MASK)

    dpif.upcall_fn = upcall
    cpu = CpuModel(2)
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    # 4 slots: with up to 8 live flows the EMC constantly displaces,
    # exercising the stale-tag paths of the flow cache.
    emc = ExactMatchCache(n_entries=4)
    return dpif, ctx, cpu, emc, p_rx, (out_a, out_b)


def _packets(burst):
    return [
        make_udp_packet(
            MacAddress.local(1), MacAddress.local(2),
            "192.168.7.1", DSTS[d], 1000 + s, 2000,
        )
        for d, s in burst
    ]


def _observe(bursts, batched: bool):
    dpif, ctx, cpu, emc, p_rx, outs = _make_world()
    # MonkeyPatch.context rather than the fixture: Hypothesis runs many
    # examples per test call, and each must flip and restore the switch.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpif_netdev, "BATCH_CLASSIFY", batched)
        with trace.recording() as rec:
            for burst in bursts:
                dpif.process_batch(_packets(burst), p_rx.port_no, ctx, emc)
    s = dpif.stats
    return {
        "tx": tuple(
            tuple(p.data for p in o.take_transmitted()) for o in outs
        ),
        "local_time_ns": ctx.local_time_ns,
        "busy": tuple(
            cpu.busy_ns(cpu=c, category=cat)
            for c in range(cpu.n_cpus) for cat in CpuCategory
        ),
        "stats": (s.packets, s.passes, s.emc_hits, s.megaflow_hits,
                  s.upcalls, s.failed_upcalls, s.dropped),
        "emc": (emc.hits, emc.misses, emc.insertions, emc.occupancy),
        "dpcls": (dpif.megaflows.hits, dpif.megaflows.misses,
                  len(dpif.megaflows), dpif.megaflows.n_masks),
        "ledger": rec.ledger(),
        "cpu_charged_ns": rec.cpu_charged_ns,
    }


burst_st = st.lists(
    st.tuples(st.integers(0, len(DSTS) - 1), st.integers(0, 7)),
    min_size=1, max_size=16,
)
bursts_st = st.lists(burst_st, min_size=1, max_size=10)


@settings(deadline=None, max_examples=50)
@given(bursts=bursts_st)
def test_batched_path_is_observationally_equivalent(bursts):
    ref = _observe(bursts, batched=False)
    bat = _observe(bursts, batched=True)
    assert bat == ref


@settings(deadline=None, max_examples=25)
@given(bursts=bursts_st)
def test_batched_path_is_deterministic(bursts):
    assert (_observe(bursts, batched=True)
            == _observe(bursts, batched=True))


def test_repeated_identical_packets_share_one_extraction():
    """Same-shape packets in one burst classify via the per-burst memo,
    and later bursts hit the cross-burst flow cache — while still being
    charged per packet (stats count every pass)."""
    bursts = [[(1, 0)] * 8, [(1, 0)] * 8]
    ref = _observe(bursts, batched=False)
    bat = _observe(bursts, batched=True)
    assert bat == ref
    assert bat["stats"][0] == 16


def test_single_and_multi_output_actions_agree():
    # dst index 2 -> low byte 3 % 3 == 0 -> two outputs; index 0 -> one.
    bursts = [[(0, 0), (2, 0), (0, 1), (2, 1)], [(2, 0), (0, 0)]]
    assert (_observe(bursts, batched=False)
            == _observe(bursts, batched=True))


def test_failed_upcalls_drop_identically():
    # dst index 4 -> low byte 5 -> upcall returns None.
    bursts = [[(4, 0), (4, 1), (0, 0)]]
    ref = _observe(bursts, batched=False)
    bat = _observe(bursts, batched=True)
    assert bat == ref
    assert bat["stats"][6] == 2  # dropped
