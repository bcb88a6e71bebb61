"""Wall-clock benchmark harness for the burst-classified datapath.

Simulator throughput (how many *real* seconds a fig9-style run takes) is
what bounds every experiment sweep in this repo, so the batching work is
judged on two axes at once:

* **speed** — best-of-N wall-clock time of each configuration with the
  burst classifier + wall-clock memo layers on, against the retained
  reference mode (``BATCH_CLASSIFY = False`` and
  ``repro.sim.fastpath`` disabled: the pre-batching behaviour);
* **fidelity** — every virtual-time observable (Mpps, ns/packet, the
  CPU-utilisation split, and for ledger workloads the trace ledger) must
  be byte-identical between the two modes and across repetitions.

Usage::

    PYTHONPATH=src python -m repro.tools.bench_report \
        --workload fig9 --out BENCH_pr2.json

The default workload drives the fig9 P2P userspace-datapath
configurations (AF_XDP and DPDK at 1 and 1000 flows) with 64-byte
frames; longer streams than the figure's default are used so the
steady-state (cache-warm) regime the paper's lossless-rate search
operates in dominates the measurement.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import time
from typing import Callable, Dict, List, Tuple

from repro.ovs import dpif_netdev
from repro.sim import fastpath, trace

#: The acceptance bar: batched fig9 runs at least this much faster.
TARGET_SPEEDUP = 2.0

#: PR 5 (JIT) acceptance bars, measured against the full reference mode
#: (burst classifier, memo layers, and JIT all off — the retained
#: pre-fastpath behaviour): the fig9 AF_XDP configurations in aggregate,
#: and the diverse-flow table5 workload where every charged nanosecond
#: is eBPF execution.
PR5_FIG9_AFXDP_TARGET = 1.5
PR5_TABLE5_TARGET = 2.0

#: PR 7 (dp-JIT) acceptance bars vs the full reference mode: the
#: diverse-flow table5 column again (the ruleset-scale eBPF workload)
#: and a dp-heavy multi-action workload where every packet executes a
#: compiled megaflow closure.
PR7_TABLE5_TARGET = 2.0
PR7_DP_TARGET = 2.0

#: PR 10 (multi-process scale-out) acceptance bar: the sharded fig9
#: workload at the highest worker count runs at least this much faster
#: than the serial (inline) run.  Only *enforced* on hosts with at
#: least ``SHARD_TARGET_MIN_CPUS`` usable CPUs — a speedup from
#: parallelism is physically impossible on fewer cores, so smaller
#: hosts measure and record honestly but do not fail the gate.
SHARD_TARGET_SPEEDUP = 3.0
SHARD_TARGET_MIN_CPUS = 4


def _set_mode(batched: bool) -> None:
    dpif_netdev.BATCH_CLASSIFY = batched
    fastpath.set_enabled(batched)


@contextlib.contextmanager
def _gc_paused():
    """Collect, then pause the cyclic GC for one timed repetition.

    The simulator allocates heavily, so a gen-2 collection landing
    inside one mode's timing (but not the other's) swings wall-clock
    ratios by 20 %+; both modes are timed under the same discipline.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _fig9_configs(link_gbps: float) -> List[Tuple[str, Callable, int]]:
    from repro.experiments.p2p import afxdp_p2p, dpdk_p2p

    out: List[Tuple[str, Callable, int]] = []
    for label, factory in (("afxdp", afxdp_p2p), ("dpdk", dpdk_p2p)):
        for flows in (1, 1000):
            out.append((f"{label}/flows={flows}",
                        lambda f=factory: f(link_gbps=link_gbps), flows))
    return out


def _time_fig9_config(factory: Callable, flows: int, packets: int,
                      reps: int, batched: bool) -> Tuple[float, Tuple]:
    """Best-of-``reps`` wall seconds plus the virtual observables, which
    must not vary across repetitions."""
    from repro.traffic.trex import FlowSpec, TrexStream

    _set_mode(batched)
    best = float("inf")
    observed = None
    for _ in range(reps):
        bench = factory()
        stream = TrexStream(FlowSpec(n_flows=flows), frame_len=64)
        with _gc_paused():
            t0 = time.perf_counter()
            m = bench.drive(stream, packets)
            wall = time.perf_counter() - t0
        best = min(best, wall)
        virt = (m.mpps, m.ns_per_packet, tuple(sorted(m.cpu_util.items())))
        if observed is None:
            observed = virt
        elif observed != virt:
            raise AssertionError(
                f"virtual results varied across repetitions: "
                f"{observed!r} vs {virt!r}"
            )
    return best, observed


def run_fig9_bench(packets: int = 6000, reps: int = 3,
                   link_gbps: float = 25.0) -> Dict:
    configs = {}
    agg_ref = agg_bat = 0.0
    for name, factory, flows in _fig9_configs(link_gbps):
        ref_wall, ref_virt = _time_fig9_config(
            factory, flows, packets, reps, batched=False)
        bat_wall, bat_virt = _time_fig9_config(
            factory, flows, packets, reps, batched=True)
        if ref_virt != bat_virt:
            raise AssertionError(
                f"{name}: batched virtual results diverged from the "
                f"reference: {bat_virt!r} vs {ref_virt!r}"
            )
        agg_ref += ref_wall
        agg_bat += bat_wall
        configs[name] = {
            "ref_wall_s": ref_wall,
            "batched_wall_s": bat_wall,
            "speedup": ref_wall / bat_wall,
            "ref_wall_pps": packets / ref_wall,
            "batched_wall_pps": packets / bat_wall,
            "virtual_mpps": ref_virt[0],
            "virtual_ns_per_packet": ref_virt[1],
            "virtual_identical": True,
        }
    aggregate = {
        "ref_wall_s": agg_ref,
        "batched_wall_s": agg_bat,
        "speedup": agg_ref / agg_bat,
    }
    return {
        "workload": "fig9",
        "packets": packets,
        "reps": reps,
        "frame_len": 64,
        "link_gbps": link_gbps,
        "configs": configs,
        "aggregate": aggregate,
        "target_speedup": TARGET_SPEEDUP,
        "meets_target": aggregate["speedup"] >= TARGET_SPEEDUP,
    }


def _time_table5(packets: int, n_flows: int, reps: int,
                 batched: bool) -> Tuple[float, Tuple, str]:
    """Best-of-``reps`` wall seconds for a diverse-flow table5 run plus
    the virtual Mpps table and one recorded trace ledger."""
    from repro.experiments.table5_xdp_cost import run_table5

    _set_mode(batched)
    best = float("inf")
    observed = None
    for _ in range(reps):
        with _gc_paused():
            t0 = time.perf_counter()
            res = run_table5(packets=packets, n_flows=n_flows)
            best = min(best, time.perf_counter() - t0)
        virt = tuple(sorted(res.mpps.items()))
        if observed is None:
            observed = virt
        elif observed != virt:
            raise AssertionError(
                f"table5 virtual results varied across repetitions: "
                f"{observed!r} vs {virt!r}"
            )
    with trace.recording() as rec:
        run_table5(packets=packets, n_flows=n_flows)
    return best, observed, rec.ledger()


def run_pr5_bench(fig9_packets: int = 6000, table5_packets: int = 6000,
                  reps: int = 3, link_gbps: float = 25.0) -> Dict:
    """The PR 5 JIT report: fig9 AF_XDP configs plus a diverse-flow
    table5 column, JIT mode against the full reference mode."""
    configs = {}
    agg_ref = agg_jit = 0.0
    for name, factory, flows in _fig9_configs(link_gbps):
        if not name.startswith("afxdp"):
            continue
        ref_wall, ref_virt = _time_fig9_config(
            factory, flows, fig9_packets, reps, batched=False)
        jit_wall, jit_virt = _time_fig9_config(
            factory, flows, fig9_packets, reps, batched=True)
        if ref_virt != jit_virt:
            raise AssertionError(
                f"{name}: JIT virtual results diverged from the "
                f"reference: {jit_virt!r} vs {ref_virt!r}"
            )
        agg_ref += ref_wall
        agg_jit += jit_wall
        configs[name] = {
            "ref_wall_s": ref_wall,
            "jit_wall_s": jit_wall,
            "speedup": ref_wall / jit_wall,
            "virtual_mpps": ref_virt[0],
            "virtual_identical": True,
        }
    t5_flows = table5_packets  # every frame its own flow: no memo hits
    t5_ref, t5_virt_ref, t5_led_ref = _time_table5(
        table5_packets, t5_flows, reps, batched=False)
    t5_jit, t5_virt_jit, t5_led_jit = _time_table5(
        table5_packets, t5_flows, reps, batched=True)
    if t5_virt_ref != t5_virt_jit:
        raise AssertionError(
            f"table5: JIT Mpps diverged from the reference: "
            f"{t5_virt_jit!r} vs {t5_virt_ref!r}"
        )
    if t5_led_ref != t5_led_jit:
        raise AssertionError("table5: JIT ledger diverged from reference")
    fig9_speedup = agg_ref / agg_jit
    table5_speedup = t5_ref / t5_jit
    return {
        "workload": "pr5",
        "reps": reps,
        "fig9_afxdp": {
            "packets": fig9_packets,
            "configs": configs,
            "ref_wall_s": agg_ref,
            "jit_wall_s": agg_jit,
            "speedup": fig9_speedup,
            "target_speedup": PR5_FIG9_AFXDP_TARGET,
        },
        "table5": {
            "packets": table5_packets,
            "n_flows": t5_flows,
            "ref_wall_s": t5_ref,
            "jit_wall_s": t5_jit,
            "speedup": table5_speedup,
            "target_speedup": PR5_TABLE5_TARGET,
            "virtual_mpps": dict(t5_virt_ref),
            "ledger_identical": True,
        },
        "meets_target": (fig9_speedup >= PR5_FIG9_AFXDP_TARGET
                         and table5_speedup >= PR5_TABLE5_TARGET),
    }


def _pr7_dp_world(n_flows: int):
    """A table3-style datapath: every flow translates to a multi-action
    chain (header rewrite + VLAN push + output), so the generic walk —
    not the single-output shortcut — is the baseline being compiled."""
    from repro.net.addresses import MacAddress
    from repro.net.builder import make_udp_packet
    from repro.net.flow import mask_from_fields
    from repro.ovs import odp
    from repro.ovs.dpif_netdev import DpifNetdev
    from repro.ovs.emc import ExactMatchCache
    from repro.ovs.netdevs import SimAdapter
    from repro.sim.cpu import CpuCategory, CpuModel, ExecContext

    dpif = DpifNetdev()
    rx, out_a, out_b = SimAdapter(), SimAdapter(), SimAdapter()
    p_rx = dpif.add_port("rx", rx)
    p_a = dpif.add_port("a", out_a)
    p_b = dpif.add_port("b", out_b)
    mask = mask_from_fields(eth_type=-1, nw_dst=-1)

    def upcall(key, ctx):
        out = p_a.port_no if key.nw_dst & 1 else p_b.port_no
        return ((odp.SetField("nw_ttl", 17), odp.PushVlan(7, 1),
                 odp.Output(out)), mask)

    dpif.upcall_fn = upcall
    frames = [
        make_udp_packet(
            MacAddress.local(1), MacAddress.local(2), "192.168.31.1",
            f"10.{(i >> 16) & 0xFF}.{(i >> 8) & 0xFF}.{i & 0xFF}",
            1000 + (i & 0xFF), 2000,
        ).data
        for i in range(n_flows)
    ]
    ctx = ExecContext(CpuModel(1), 0, CpuCategory.USER)
    emc = ExactMatchCache()
    return dpif, ctx, emc, p_rx, (out_a, out_b), frames


def _drive_pr7_dp(packets: int, n_flows: int) -> Tuple:
    """Run the dp workload once; returns the virtual observables."""
    from repro.net.packet import Packet

    dpif, ctx, emc, p_rx, outs, frames = _pr7_dp_world(n_flows)
    burst_size = 32
    sent = 0
    i = 0
    while sent < packets:
        burst = [Packet(frames[(i + j) % n_flows])
                 for j in range(min(burst_size, packets - sent))]
        dpif.process_batch(burst, p_rx.port_no, ctx, emc)
        sent += len(burst)
        i += len(burst)
    s = dpif.stats
    tx = tuple(sum(len(p.data) for p in o.take_transmitted())
               for o in outs)
    return (ctx.local_time_ns, tx,
            (s.packets, s.passes, s.emc_hits, s.megaflow_hits,
             s.upcalls, s.dropped))


def _time_pr7_dp(packets: int, n_flows: int, reps: int,
                 batched: bool, dpjit_on: bool = True) -> Tuple[float, Tuple, str]:
    """Best-of-``reps`` wall seconds for the dp workload plus the
    virtual observables and one recorded trace ledger."""
    from repro.ovs import dpjit

    _set_mode(batched)
    best = float("inf")
    observed = None
    with contextlib.ExitStack() as stack:
        if not dpjit_on:
            stack.enter_context(dpjit.disabled())
        for _ in range(reps):
            with _gc_paused():
                t0 = time.perf_counter()
                virt = _drive_pr7_dp(packets, n_flows)
                best = min(best, time.perf_counter() - t0)
            if observed is None:
                observed = virt
            elif observed != virt:
                raise AssertionError(
                    f"pr7-dp virtual results varied across repetitions: "
                    f"{observed!r} vs {virt!r}"
                )
        with trace.recording() as rec:
            _drive_pr7_dp(packets, n_flows)
    return best, observed, rec.ledger()


def run_pr7_bench(dp_packets: int = 24000, dp_flows: int = 0,
                  table5_packets: int = 6000, reps: int = 3) -> Dict:
    """The PR 7 dp-JIT report: the dp-heavy multi-action workload and
    the diverse-flow table5 column, fastpath mode against the full
    reference mode, plus the dp-JIT's own marginal (fastpath on, dp-JIT
    off) for attribution."""
    from repro.ovs import dpjit

    # ~48 packets per flow: the steady-state regime where a megaflow
    # (and its closure) is reused, as under the paper's lossless-rate
    # search — not the install-churn regime, which the flow-limit tests
    # cover functionally.
    dp_flows = dp_flows or max(50, dp_packets // 48)
    dp_ref, dp_virt_ref, dp_led_ref = _time_pr7_dp(
        dp_packets, dp_flows, reps, batched=False)
    dispatched_before = dpjit.STATS.dispatched
    dp_jit, dp_virt_jit, dp_led_jit = _time_pr7_dp(
        dp_packets, dp_flows, reps, batched=True)
    dispatched = dpjit.STATS.dispatched - dispatched_before
    if not dispatched:
        raise AssertionError(
            "pr7-dp: no compiled megaflow dispatched — the bench is "
            "not measuring the dp-JIT")
    dp_nojit, dp_virt_nojit, _ = _time_pr7_dp(
        dp_packets, dp_flows, reps, batched=True, dpjit_on=False)
    if dp_virt_ref != dp_virt_jit or dp_virt_ref != dp_virt_nojit:
        raise AssertionError(
            f"pr7-dp: virtual results diverged across modes: "
            f"{dp_virt_ref!r} / {dp_virt_jit!r} / {dp_virt_nojit!r}"
        )
    if dp_led_ref != dp_led_jit:
        raise AssertionError("pr7-dp: dp-JIT ledger diverged from reference")
    t5_flows = table5_packets  # every frame its own flow: no memo hits
    t5_ref, t5_virt_ref, t5_led_ref = _time_table5(
        table5_packets, t5_flows, reps, batched=False)
    t5_jit, t5_virt_jit, t5_led_jit = _time_table5(
        table5_packets, t5_flows, reps, batched=True)
    if t5_virt_ref != t5_virt_jit:
        raise AssertionError(
            f"table5: fastpath Mpps diverged from the reference: "
            f"{t5_virt_jit!r} vs {t5_virt_ref!r}"
        )
    if t5_led_ref != t5_led_jit:
        raise AssertionError("table5: fastpath ledger diverged from reference")
    dp_speedup = dp_ref / dp_jit
    table5_speedup = t5_ref / t5_jit
    return {
        "workload": "pr7",
        "reps": reps,
        "dp_multiaction": {
            "packets": dp_packets,
            "n_flows": dp_flows,
            "ref_wall_s": dp_ref,
            "jit_wall_s": dp_jit,
            "nodpjit_wall_s": dp_nojit,
            "speedup": dp_speedup,
            "dpjit_marginal_speedup": dp_nojit / dp_jit,
            "dpjit_dispatched": dispatched,
            "target_speedup": PR7_DP_TARGET,
            "ledger_identical": True,
        },
        "table5": {
            "packets": table5_packets,
            "n_flows": t5_flows,
            "ref_wall_s": t5_ref,
            "jit_wall_s": t5_jit,
            "speedup": table5_speedup,
            "target_speedup": PR7_TABLE5_TARGET,
            "virtual_mpps": dict(t5_virt_ref),
            "ledger_identical": True,
        },
        "meets_target": (dp_speedup >= PR7_DP_TARGET
                         and table5_speedup >= PR7_TABLE5_TARGET),
    }


def run_shard_bench(packets: int = 100_000,
                    workers: Tuple[int, ...] = (1, 2, 4),
                    reps: int = 1) -> Dict:
    """PR 10: multi-process scale-out of the full fig9 cell set.

    ``packets`` is the *total* stream budget, split evenly across the
    20 fig9 cells (all three scenarios, both flow counts) — a fig9-style
    workload big enough that worker startup cost is amortized.  Each
    worker count is timed (best of ``reps``) running the identical unit
    list through :func:`repro.sim.shard.run_units`; the returned Mpps
    values must be byte-identical across every worker count (the
    byte-identity of traced observables is the shard gate's job — this
    bench runs untraced, like a real sweep).

    The report records the host honestly (usable CPUs, start method):
    the 3x bar at 4 workers is enforced only when the host has at least
    4 usable CPUs, never faked on smaller machines.
    """
    from repro.experiments.fig9_forwarding import cell_units
    from repro.sim.shard import (
        default_start_method,
        run_units,
        usable_cpus,
    )

    units = cell_units(max(1, packets // 20))
    per_worker: Dict[str, Dict] = {}
    serial_values = None
    values_identical = True
    for n in workers:
        best = float("inf")
        barriers = 0
        for _ in range(reps):
            with _gc_paused():
                t0 = time.perf_counter()
                run = run_units(units, shards=n)
                best = min(best, time.perf_counter() - t0)
            barriers = run.report.barriers
            if serial_values is None:
                serial_values = run.values
            elif run.values != serial_values:
                values_identical = False
        per_worker[str(n)] = {
            "wall_s": best,
            "n_shards": run.report.n_shards,
            "barriers": barriers,
        }
    top = str(max(workers))
    speedup = per_worker["1"]["wall_s"] / per_worker[top]["wall_s"]
    cpus = usable_cpus()
    enforced = cpus >= SHARD_TARGET_MIN_CPUS
    return {
        "workload": "shard",
        "packets_total": len(units) * max(1, packets // 20),
        "units": len(units),
        "workers": per_worker,
        "speedup_at_max_workers": speedup,
        "target_speedup": SHARD_TARGET_SPEEDUP,
        "target_min_cpus": SHARD_TARGET_MIN_CPUS,
        "usable_cpus": cpus,
        "start_method": default_start_method(),
        "values_identical": values_identical,
        "target_enforced": enforced,
        "meets_target": (speedup >= SHARD_TARGET_SPEEDUP
                         if enforced else True),
    }


def run_bench(workload: str = "fig9", packets: int = 0,
              reps: int = 3) -> Dict:
    if workload == "fig9":
        return run_fig9_bench(packets=packets or 6000, reps=reps)
    if workload == "pr5":
        return run_pr5_bench(fig9_packets=packets or 6000,
                             table5_packets=packets or 6000, reps=reps)
    if workload == "pr7":
        return run_pr7_bench(dp_packets=(packets or 6000) * 4,
                             table5_packets=packets or 6000, reps=reps)
    if workload == "shard":
        return run_shard_bench(packets=packets or 100_000, reps=reps)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="fig9",
                        choices=["fig9", "pr5", "pr7", "shard"])
    parser.add_argument("--packets", type=int, default=0,
                        help="stream length (0 = workload default)")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", default="BENCH_pr2.json")
    args = parser.parse_args(argv)

    prev_batch, prev_fast = dpif_netdev.BATCH_CLASSIFY, fastpath.ENABLED
    try:
        report = run_bench(args.workload, packets=args.packets,
                           reps=args.reps)
    finally:
        dpif_netdev.BATCH_CLASSIFY = prev_batch
        fastpath.set_enabled(prev_fast)
    report["generated_unix"] = int(time.time())

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if args.workload == "pr7":
        dp = report["dp_multiaction"]
        print(f"{'dp multi-action':18s} ref={dp['ref_wall_s'] * 1e3:8.1f}ms "
              f"jit={dp['jit_wall_s'] * 1e3:8.1f}ms "
              f"speedup={dp['speedup']:.2f}x "
              f"(target {dp['target_speedup']:.1f}x; "
              f"dp-jit marginal {dp['dpjit_marginal_speedup']:.2f}x, "
              f"{dp['dpjit_dispatched']} dispatches)")
        t5 = report["table5"]
        print(f"{'table5 diverse':18s} ref={t5['ref_wall_s'] * 1e3:8.1f}ms "
              f"jit={t5['jit_wall_s'] * 1e3:8.1f}ms "
              f"speedup={t5['speedup']:.2f}x "
              f"(target {t5['target_speedup']:.1f}x)")
        print(f"meets_target: {report['meets_target']}")
    elif args.workload == "pr5":
        fig9 = report["fig9_afxdp"]
        for name, cfg in fig9["configs"].items():
            print(f"{name:18s} ref={cfg['ref_wall_s'] * 1e3:8.1f}ms "
                  f"jit={cfg['jit_wall_s'] * 1e3:8.1f}ms "
                  f"speedup={cfg['speedup']:.2f}x")
        print(f"{'fig9 afxdp agg':18s} speedup={fig9['speedup']:.2f}x "
              f"(target {fig9['target_speedup']:.1f}x)")
        t5 = report["table5"]
        print(f"{'table5 diverse':18s} ref={t5['ref_wall_s'] * 1e3:8.1f}ms "
              f"jit={t5['jit_wall_s'] * 1e3:8.1f}ms "
              f"speedup={t5['speedup']:.2f}x "
              f"(target {t5['target_speedup']:.1f}x)")
        print(f"meets_target: {report['meets_target']}")
    elif args.workload == "shard":
        for n, row in sorted(report["workers"].items(),
                             key=lambda kv: int(kv[0])):
            print(f"{'workers=' + n:18s} wall={row['wall_s']:8.2f}s "
                  f"shards={row['n_shards']} barriers={row['barriers']}")
        bar = (f"target {report['target_speedup']:.1f}x: "
               f"{'MET' if report['meets_target'] else 'NOT MET'}"
               if report["target_enforced"]
               else f"target not enforced: host has "
                    f"{report['usable_cpus']} usable CPU(s), "
                    f"needs {report['target_min_cpus']}")
        print(f"{'scale-out':18s} "
              f"speedup={report['speedup_at_max_workers']:.2f}x "
              f"({bar}; start method {report['start_method']}, "
              f"values identical: {report['values_identical']})")
    else:
        for name, cfg in report["configs"].items():
            print(f"{name:18s} ref={cfg['ref_wall_s'] * 1e3:8.1f}ms "
                  f"batched={cfg['batched_wall_s'] * 1e3:8.1f}ms "
                  f"speedup={cfg['speedup']:.2f}x")
        agg = report["aggregate"]
        print(f"{'aggregate':18s} ref={agg['ref_wall_s'] * 1e3:8.1f}ms "
              f"batched={agg['batched_wall_s'] * 1e3:8.1f}ms "
              f"speedup={agg['speedup']:.2f}x "
              f"(target {report['target_speedup']:.1f}x: "
              f"{'MET' if report['meets_target'] else 'NOT MET'})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
