"""The benchmark's workloads, driven through the simulator's public API.

Load is a closed loop: one process pushes a fixed number of
simulated packets through as fast as the host runs them.  Inputs come
from the benchmark seed; the simulator receives only the generated
streams and frames.  Every number reported is host time; virtual-time
outputs are digested and checked.

A workload runs in *rounds*.  Each round is identical work and yields,
per operation (a Figure 9 cell, a Table 5 task, an NSX forwarding pass),
an ``Op``: its host set-up seconds, its measured window cut per offered
burst, its measured packets and its virtual-time output.  The caller
repeats rounds for the run's duration.
"""

from __future__ import annotations

import gc
import os
import pickle
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench import layers

#: Measured packets per Figure 9 cell (the experiment's own default).
FIG9_PACKETS = 1_500
#: Measured packets per Table 5 task; a multiple of the 64-frame burst.
XDP_PACKETS = 6_400
XDP_BURST = 64
XDP_WARMUP = 64
#: Packets per NSX forwarding pass, offered in bursts of NSX_BURST.
NSX_PACKETS = 16_000
NSX_BURST = 32
#: Distinct 5-tuples towards each remote MAC on the VIF's logical switch.
NSX_TUPLES_PER_MAC = 3
#: NSX set-ups per run (each deploys the full rule set in a fresh world).
NSX_SETUPS = 3
SHARDS = 2

ABLATIONS = ("batching", "memo", "ebpf_jit", "dpjit")


def apply_ablation(name: Optional[str]) -> None:
    """Turn one fast-path layer off through its public switch."""
    if name is None:
        return
    from repro.ebpf import jit
    from repro.ovs import dpif_netdev, dpjit
    from repro.sim import fastpath

    if name == "batching":
        dpif_netdev.BATCH_CLASSIFY = False
    elif name == "memo":
        fastpath.set_enabled(False)
    elif name == "ebpf_jit":
        jit.set_enabled(False)
    elif name == "dpjit":
        dpjit.set_enabled(False)
    else:
        raise ValueError(f"unknown ablation {name!r}; one of {ABLATIONS}")


def switches() -> Dict[str, bool]:
    """The state of every fast-path switch in this process."""
    from repro.ebpf import jit
    from repro.ovs import dpif_netdev, dpjit
    from repro.sim import fastpath

    return {
        "batching": bool(dpif_netdev.BATCH_CLASSIFY),
        "memo": bool(fastpath.ENABLED),
        "ebpf_jit": bool(jit.ENABLED),
        "dpjit": bool(dpjit.ENABLED),
    }


# ----------------------------------------------------------------------
# Where drive() ends its warm-up: it takes a CpuSnapshot.  Wrapping the
# classmethod from outside marks that instant without touching the
# simulator's source.
# ----------------------------------------------------------------------
class _SnapshotMark:
    def __init__(self) -> None:
        self.t: Optional[float] = None
        self.on_take = None

    def install(self) -> None:
        from repro.experiments.common import CpuSnapshot

        original = CpuSnapshot.__dict__["take"].__func__
        if getattr(original, "_perfbench_mark", False):
            return
        mark = self

        def take(cls, cpu):
            mark.t = time.perf_counter()
            if mark.on_take is not None:
                mark.on_take()
            return original(cls, cpu)

        take._perfbench_mark = True
        CpuSnapshot.take = classmethod(take)


SNAPSHOT = _SnapshotMark()


@dataclass
class Op:
    """One operation of a round."""

    key: str
    setup_s: float
    measure_s: float
    packets: int
    #: Virtual-time output (JSON-able), or ``{"error": ...}``.
    output: Any
    layer: Optional[Dict[str, float]] = None
    #: The measured window cut at each burst the load offers: host
    #: seconds per burst, summing to ``measure_s``.
    chunks: List[float] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return isinstance(self.output, dict) and "error" in self.output


def _failed_op(key: str, exc: BaseException) -> Op:
    return Op(key, 0.0, 0.0, 0, {"error": f"{type(exc).__name__}: {exc}"})


def _chunks(bounds: List[float]) -> List[float]:
    return [b - a for a, b in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# fig9_cells (and its sharded round)
# ----------------------------------------------------------------------
def fig9_keys() -> List[Tuple[str, str, int]]:
    from repro.experiments.fig9_forwarding import CONFIGS, FLOW_COUNTS

    return [(scenario, label, flows)
            for scenario, configs in CONFIGS.items()
            for label, _ in configs
            for flows in FLOW_COUNTS]


def fig9_cell(scenario: str, label: str, flows: int, packets: int,
              seed: int, log: Optional[layers.SpanLog] = None) -> Op:
    """One Figure 9 cell: fresh world, seeded stream, one drive()."""
    from repro.experiments.fig9_forwarding import CONFIGS
    from repro.traffic.trex import FlowSpec, TrexStream

    key = f"{scenario}/{label}/{flows}"
    SNAPSHOT.install()
    before: List[Dict[str, float]] = []
    SNAPSHOT.t = None
    SNAPSHOT.on_take = (lambda: before.append(log.counters())) if log else None
    t0 = time.perf_counter()
    try:
        bench = dict(CONFIGS[scenario])[label]()
        # PCP streams target the container's IP; sources still vary.
        spec = FlowSpec(n_flows=flows, vary_dst=(scenario != "PCP"))
        stream = TrexStream(spec, frame_len=64, seed=seed)
        # drive() pulls one burst per chunk it offers: stamping the pulls
        # after the warm-up cuts the measured window per burst.
        marks: List[float] = []
        pull = stream.burst

        def burst(n: int):
            if SNAPSHOT.t is not None:
                marks.append(time.perf_counter())
            return pull(n)

        stream.burst = burst
        m = bench.drive(stream, packets)
        t_end = time.perf_counter()
    except Exception as exc:  # a failed cell is counted, not fatal
        if log is not None:
            log.collect([], {}, f"fig9-{key}-failed")
        return _failed_op(key, exc)
    finally:
        SNAPSHOT.on_take = None
    snap = SNAPSHOT.t
    if snap is None:
        return Op(key, 0.0, 0.0, 0,
                  {"error": "drive() took no CpuSnapshot"})
    totals = None
    if log is not None:
        totals = {"packets": packets}
        layers.add_counter_delta(totals, before[-1], log.counters())
        log.collect([("setup", t0, snap), ("measure", snap, t_end)],
                    totals, f"fig9-{key}")
    output = [m.mpps, m.ns_per_packet, sorted(m.cpu_util.items())]
    return Op(key, snap - t0, t_end - snap, packets, output, totals,
              _chunks([snap, *marks, t_end]))


def fig9_unit(scenario: str, label: str, flows: int, packets: int,
              seed: int, ablate: Optional[str]) -> Op:
    """Shard-unit runner: one fig9 cell inside a worker process."""
    apply_ablation(ablate)
    return fig9_cell(scenario, label, flows, packets, seed)


def fig9_sharded(seed: int, ablate: Optional[str]
                 ) -> Tuple[List[Op], Dict[str, float]]:
    """The Figure 9 cells once through ``run_units(shards=SHARDS)``:
    the merged cells and the shard layer's metrics."""
    from repro.experiments.fig9_forwarding import CELL_WEIGHTS
    from repro.sim.shard import Unit, run_units

    units = [
        Unit(key=f"{sc}/{label}/{flows}",
             runner="perfbench.workloads:fig9_unit",
             params=dict(scenario=sc, label=label, flows=flows,
                         packets=FIG9_PACKETS, seed=seed, ablate=ablate),
             weight=CELL_WEIGHTS.get((sc, label), 1.0))
        for sc, label, flows in fig9_keys()
    ]
    run = run_units(units, shards=SHARDS)
    ops: List[Op] = list(run.values)
    walls = list(run.report.shard_walls.values())
    return ops, {
        "shard.imbalance": max(walls) / statistics.mean(walls),
        "shard.merge_s": run.report.merge_wall_s,
        # ShardReport.payload_bytes counts only trace snapshots, which
        # are off here; count the unit results the workers return.
        "shard.payload_bytes": float(sum(
            len(pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL))
            for op in ops)),
        "shard.barriers": float(run.report.barriers),
    }


class Fig9Cells:
    """All 20 Figure 9 cells, serially, in this process."""

    name = "fig9_cells"

    def __init__(self, seed: int, ablate: Optional[str] = None) -> None:
        self.seed = seed
        self.ablate = ablate
        self.log: Optional[layers.SpanLog] = None

    def prepare(self) -> List[float]:
        return []

    def round(self) -> List[Op]:
        return [fig9_cell(sc, label, flows, FIG9_PACKETS, self.seed, self.log)
                for sc, label, flows in fig9_keys()]

    def seed_free_ops(self, rounds: List[List[Op]], seed: int) -> List[Op]:
        """The 1-flow cells: their streams draw no random addresses."""
        return [op for op in rounds[0] if op.key.endswith("/1")]


# ----------------------------------------------------------------------
# xdp_diverse
# ----------------------------------------------------------------------
def _xdp_program(task: str):
    from repro.ebpf import programs
    from repro.traffic.trex import FlowSpec, TrexStream

    if task == "A":
        return programs.drop_program()
    if task == "B":
        return programs.parse_drop_program()
    if task == "C":
        prog, table = programs.parse_lookup_drop_program()
        # The L2 table holds the stream's destination MAC, so C's lookup
        # hits, as in the paper.
        dst_mac = TrexStream(FlowSpec(1), frame_len=64).next_packet().data[0:6]
        table.update(programs.l2_key(dst_mac), (1).to_bytes(4, "little"))
        return prog
    if task == "D":
        return programs.parse_swap_tx_program()
    raise ValueError(task)


def xdp_task(task: str, packets: int, seed: int,
             log: Optional[layers.SpanLog] = None) -> Op:
    """One Table 5 task over a stream in which every frame is its own
    flow, so the XDP verdict memo never hits."""
    from repro.ebpf.xdp import XdpContext
    from repro.experiments.common import CpuSnapshot, reduce_run
    from repro.hosts.host import Host
    from repro.kernel.netdev import NetDevice, Wire
    from repro.net.addresses import MacAddress
    from repro.traffic.trex import FlowSpec, TrexStream

    link_gbps = 10.0
    t0 = time.perf_counter()
    try:
        host = Host("dut", n_cpus=4)
        nic = host.add_nic("ens1", n_queues=1)
        sink = NetDevice("sink", MacAddress.local(0xF1001))
        sink.set_up()
        sink.set_rx_handler(lambda pkt, ctx: None)
        Wire(nic, sink, gbps=link_gbps)
        nic.attach_xdp(XdpContext(_xdp_program(task)))
        host.kernel.set_irq_affinity("ens1", 0, 0)
        stream = TrexStream(FlowSpec(packets + XDP_WARMUP), frame_len=64,
                            seed=seed)
        kernel = host.kernel
        for pkt in stream.burst(XDP_WARMUP):
            nic.host_receive(pkt)
        while nic.pending():
            kernel.service_nic(nic, budget=XDP_BURST, interrupt_mode=False)
        ctr0 = log.counters() if log is not None else None
        snap = time.perf_counter()
        bounds = [snap]
        before = CpuSnapshot.take(host.cpu)
        sent = 0
        while sent < packets:
            for pkt in stream.burst(XDP_BURST):
                nic.host_receive(pkt)
            sent += XDP_BURST
            while nic.pending():
                kernel.service_nic(nic, budget=XDP_BURST,
                                   interrupt_mode=False)
            bounds.append(time.perf_counter())
        t_end = bounds[-1]
        mpps = reduce_run(host.cpu, before, sent, link_gbps=link_gbps,
                          frame_len=64).mpps
    except Exception as exc:  # a failed task is counted, not fatal
        if log is not None:
            log.collect([], {}, f"xdp-{task}-failed")
        return _failed_op(task, exc)
    totals = None
    if log is not None:
        totals = {"packets": packets}
        layers.add_counter_delta(totals, ctr0, log.counters())
        log.collect([("setup", t0, snap), ("measure", snap, t_end)],
                    totals, f"xdp-{task}")
    return Op(task, snap - t0, t_end - snap, packets, mpps, totals,
              _chunks(bounds))


class XdpDiverse:
    """Table 5 tasks A-D, every frame its own flow."""

    name = "xdp_diverse"

    def __init__(self, seed: int, ablate: Optional[str] = None) -> None:
        self.seed = seed
        self.log: Optional[layers.SpanLog] = None

    def prepare(self) -> List[float]:
        return []

    def round(self) -> List[Op]:
        return [xdp_task(task, XDP_PACKETS, self.seed, self.log)
                for task in "ABCD"]

    def seed_free_ops(self, rounds: List[List[Op]], seed: int) -> List[Op]:
        """Every task: program cost does not depend on the addresses."""
        return rounds[0]


# ----------------------------------------------------------------------
# nsx_overlay
# ----------------------------------------------------------------------
def rss_bytes() -> int:
    """This process's resident set now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@dataclass
class NsxWorld:
    host: Any
    vs: Any
    uplink_adapter: Any
    in_port: int
    stats: Any
    topo: Any
    #: The offered frames, in offer order.
    frames: List[bytes]


class NsxOverlay:
    """The Table 3 NSX rule set, then VIF-to-remote overlay traffic.

    Set-up deploys 103,302 rules in 40 tables through ``NsxAgent.deploy``
    in a fresh world (``NSX_SETUPS`` times; the last world is kept).
    Each round cold-starts the datapath caches and conntrack, then
    offers ``NSX_PACKETS`` UDP frames from the first VIF to the remote
    MACs of its logical switch: DFW conntrack, recirculation and Geneve
    push, with the upcalls and conntrack commits of new flows.
    """

    name = "nsx_overlay"

    def __init__(self, seed: int, ablate: Optional[str] = None) -> None:
        self.seed = seed
        self.log: Optional[layers.SpanLog] = None
        self.world: Optional[NsxWorld] = None
        #: Resident-set growth over the first deploy (set by prepare()).
        self.deploy_rss_bytes = 0.0

    def _frames(self, topo, seed: int) -> List[bytes]:
        from repro.net import make_udp_packet
        from repro.sim.rng import make_rng

        rng = make_rng("perfbench-nsx", seed=seed)
        src = topo.vifs[0]
        subnet = topo.subnets[src.logical_switch]
        flows = []
        for rm in topo.remote_macs:
            if rm.logical_switch != src.logical_switch:
                continue
            for _ in range(NSX_TUPLES_PER_MAC):
                flows.append(make_udp_packet(
                    src.mac, rm.mac, src.ip, subnet | rng.randrange(2, 255),
                    rng.randrange(1024, 65536), rng.randrange(1, 1024),
                ).data)
        return [flows[rng.randrange(len(flows))]
                for _ in range(NSX_PACKETS)]

    def build(self, around_deploy=None) -> NsxWorld:
        """A fresh hypervisor with the rule set deployed; ``around_deploy``
        (a context manager factory) brackets just the deploy."""
        import contextlib

        from repro.hosts.host import Host
        from repro.nsx.agent import NsxAgent

        host = Host("hv1", n_cpus=16)
        nic = host.add_nic("ens1")
        host.kernel.init_ns.add_address("ens1", "192.168.1.1", 16)
        vs = host.install_ovs("netdev")
        bridge = NsxAgent.INTEGRATION_BRIDGE
        vs.add_bridge(bridge)
        uplink, uplink_adapter = vs.add_sim_port(bridge, "up0")
        vs.dpif_netdev.ports[uplink.dp_port_no].device = nic
        agent = NsxAgent(vs)
        vif_ports = {}
        for vif in agent.topo.vifs[:2]:
            port, _adapter = vs.add_sim_port(bridge, f"vif{vif.vif_id}")
            vif_ports[vif.vif_id] = port
        with (around_deploy or contextlib.nullcontext)():
            stats = agent.deploy(uplink, vif_ports)
        in_port = vs.dpif_netdev.port_no(f"vif{agent.topo.vifs[0].vif_id}")
        return NsxWorld(host, vs, uplink_adapter, in_port, stats,
                        agent.topo, self._frames(agent.topo, self.seed))

    def prepare(self) -> List[float]:
        import contextlib

        grown = []

        @contextlib.contextmanager
        def rss_growth():
            rss0 = rss_bytes()
            yield
            grown.append(rss_bytes() - rss0)

        samples = []
        for i in range(NSX_SETUPS):
            # Drop the previous world first so worlds never coexist.
            self.world = None
            gc.collect()
            t0 = time.perf_counter()
            # The first deploy runs in a fresh heap, so the resident set
            # grows by what the rules occupy.
            self.world = self.build(rss_growth if i == 0 else None)
            samples.append(time.perf_counter() - t0)
        self.deploy_rss_bytes = float(grown[0])
        return samples

    def round(self) -> List[Op]:
        import hashlib

        from repro.net.packet import Packet
        from repro.ovs.emc import ExactMatchCache
        from repro.sim.cpu import CpuCategory, ExecContext

        w = self.world
        dpif = w.vs.dpif_netdev
        take = w.uplink_adapter.take_transmitted
        frames = w.frames
        tx = hashlib.sha256()
        tx_packets = tx_bytes = 0
        try:
            dpif.cold_start()
            emc = ExactMatchCache()
            ctx = ExecContext(w.host.cpu, 1, CpuCategory.USER)
            before = {f: getattr(dpif.stats, f) for f in _NSX_STATS}
            ctr0 = self.log.counters() if self.log is not None else None
            bounds = [time.perf_counter()]
            # Packets are made and consumed burst by burst, so they die
            # young as in a running switch instead of piling up in the
            # collector's oldest generation.
            for i in range(0, len(frames), NSX_BURST):
                dpif.process_batch([Packet(f) for f in frames[i:i + NSX_BURST]],
                                   w.in_port, ctx, emc)
                for pkt in take():
                    data = pkt.data
                    tx_packets += 1
                    tx_bytes += len(data)
                    # Skip the outer source MAC: it is the uplink NIC's,
                    # and the simulator numbers NICs per process.
                    tx.update(data[:6])
                    tx.update(data[12:])
                bounds.append(time.perf_counter())
            t0, t_end = bounds[0], bounds[-1]
        except Exception as exc:  # a failed pass is counted, not fatal
            return [_failed_op("pass", exc)]
        output = {
            "rules": w.stats.n_rules,
            "tables": w.stats.n_tables,
            "local_time_ns": ctx.local_time_ns,
            "uplink_tx_packets": tx_packets,
            "uplink_tx_bytes": tx_bytes,
            "uplink_tx_sha256": tx.hexdigest(),
            "dpif": {f: getattr(dpif.stats, f) - before[f]
                     for f in _NSX_STATS},
        }
        totals = None
        if self.log is not None:
            totals = {"packets": len(w.frames)}
            layers.add_counter_delta(totals, ctr0, self.log.counters())
            self.log.collect([("measure", t0, t_end)], totals, "nsx-pass")
        return [Op("pass", 0.0, t_end - t0, len(w.frames), output, totals,
                   _chunks(bounds))]

    def seed_free_ops(self, rounds: List[List[Op]], seed: int) -> List[Op]:
        """One more pass, over the frames of ``seed`` instead of the run's
        own, so every run checks the datapath against a committed digest."""
        if seed == self.seed:
            return rounds[0]
        w = self.world
        own = w.frames
        w.frames = self._frames(w.topo, seed)
        try:
            return self.round()
        finally:
            w.frames = own

    def traced_setup(self, log: layers.SpanLog) -> Dict[str, float]:
        """One more set-up with spans on, for the rule-install metrics."""
        self.world = None
        gc.collect()
        totals: Dict[str, float] = {}
        t0 = time.perf_counter()
        self.world = self.build()
        log.collect([("setup", t0, time.perf_counter())], totals,
                    "nsx-deploy")
        return totals


_NSX_STATS = ("emc_hits", "megaflow_hits", "upcalls", "failed_upcalls",
              "lost", "passes", "dropped", "packets", "batches")

WORKLOADS = {
    "fig9_cells": Fig9Cells,
    "xdp_diverse": XdpDiverse,
    "nsx_overlay": NsxOverlay,
}
