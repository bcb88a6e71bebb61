"""Per-layer host-time tracing, done from outside the simulator.

The traced run wraps the public entry points of each layer at run time
(class attributes and module functions are replaced in this process
only; the simulator's source is untouched).  Every wrapped call records
one span -- name, start, end, parent -- into flat in-memory arrays.  The
benchmark closes each span log per cell: it derives per-name counts,
inclusive time and self time (a span minus the spans nested in it) for
labelled time windows, writes the raw spans to a file and starts afresh,
so memory stays bounded by one cell.

Windows are ``setup`` (world build, stream generation, warm-up, rule
deploy) and ``measure`` (the measured packets).  Totals are flat
``{str: number}`` dicts so worker processes can return them and the
coordinator can sum them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, "module:attribute path") of every wrapped boundary.
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    ("charge", "repro.sim.cpu:ExecContext.charge"),
    ("charge_n", "repro.sim.cpu:ExecContext.charge_n"),
    ("clone", "repro.net.packet:Packet.clone"),
    ("extract_flow", "repro.net.flow:extract_flow"),
    ("encapsulate", "repro.net.tunnel:encapsulate"),
    ("decapsulate", "repro.net.tunnel:decapsulate"),
    ("nic.host_receive", "repro.kernel.nic:PhysicalNic.host_receive"),
    ("nic.service_queue", "repro.kernel.nic:PhysicalNic.service_queue"),
    ("kernel.service_nic", "repro.kernel.kernel:Kernel.service_nic"),
    ("kdp.receive", "repro.kernel.ovs_module:KernelDatapath.receive"),
    ("xdp.run", "repro.ebpf.xdp:XdpContext.run"),
    ("xsk.kernel_rx", "repro.afxdp.socket:XskSocket.kernel_rx"),
    ("xsk.user_rx_batch", "repro.afxdp.socket:XskSocket.user_rx_batch"),
    ("xsk.user_tx_batch", "repro.afxdp.socket:XskSocket.user_tx_batch"),
    ("xsk.refill_fill_ring", "repro.afxdp.socket:XskSocket.refill_fill_ring"),
    ("xsk.reap_completions", "repro.afxdp.socket:XskSocket.reap_completions"),
    ("vhost.rx_burst", "repro.vhost.vhostuser:VhostUserPort.rx_burst"),
    ("vhost.tx_burst", "repro.vhost.vhostuser:VhostUserPort.tx_burst"),
    ("virtio.guest_service_rx", "repro.vhost.virtio:VirtioNic.guest_service_rx"),
    ("dpif.process_batch", "repro.ovs.dpif_netdev:DpifNetdev.process_batch"),
    ("ofproto.translate", "repro.ovs.ofproto:Ofproto.translate"),
    ("ct.process", "repro.ovs.ct_userspace:UserspaceConntrack.process"),
    ("of.add_flow", "repro.ovs.openflow:OpenFlowConnection.add_flow"),
    ("match.init", "repro.ovs.match:Match.__init__"),
    ("nsx.deploy", "repro.nsx.agent:NsxAgent.deploy"),
    ("trex.init", "repro.traffic.trex:TrexStream.__init__"),
)
SPAN_NAMES: Tuple[str, ...] = tuple(name for name, _ in BOUNDARIES)

#: dpif.stats fields read at window edges (summed over every datapath).
DPIF_FIELDS = ("emc_hits", "megaflow_hits", "upcalls", "passes",
               "packets", "batches")


def _resolve(spec: str):
    """``"module:Attr.path"`` -> (owner object, attribute name, value)."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class SpanLog:
    """The spans of the current cell, in flat arrays."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.name = array("H")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        #: Open span indices; -1 is the root sentinel.
        self.stack: List[int] = [-1]
        #: Every live DpifNetdev built while tracing (dpif.stats is per
        #: instance).
        self.dpifs: "weakref.WeakSet" = weakref.WeakSet()
        self.out_dir = out_dir
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary; rebinding functions imported by name."""
        if self._patched:
            return
        for nid, (_, spec) in enumerate(BOUNDARIES):
            owner, attr, original = _resolve(spec)
            wrapper = self._wrap(original, nid)
            self._patch(owner, attr, original, wrapper)
            if isinstance(owner, type(sys)):
                # ``from repro.net.flow import extract_flow`` copies the
                # reference: rebind it in every module already loaded.
                for mod in list(sys.modules.values()):
                    if (mod is not owner and mod is not None
                            and getattr(mod, "__name__", "").startswith("repro")
                            and mod.__dict__.get(attr) is original):
                        self._patch(mod, attr, original, wrapper)
        owner, attr, original = _resolve(
            "repro.ovs.dpif_netdev:DpifNetdev.__init__")
        dpifs = self.dpifs

        def register(dp, *args, **kwargs):
            original(dp, *args, **kwargs)
            dpifs.add(dp)

        self._patch(owner, attr, original, register)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def _wrap(self, fn, nid: int):
        names, parents, t0s, t1s = self.name, self.parent, self.t0, self.t1
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(t0s)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(i)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()

        return traced

    # -- counters read at window edges ----------------------------------
    def counters(self) -> Dict[str, object]:
        """Counters to difference over a window.  dpif.stats are kept per
        live datapath, so a world collected mid-run drops out of both
        ends of the difference instead of only one."""
        from repro.ebpf import jit
        from repro.ovs import dpjit

        progs = jit.stats().values()
        return {
            "dpif": {id(dp): tuple(getattr(dp.stats, f) for f in DPIF_FIELDS)
                     for dp in self.dpifs},
            "jit.jit_runs": sum(s.jit_runs for s in progs),
            "jit.interp_runs": sum(s.interp_runs for s in progs),
            "dpjit.dispatched": dpjit.STATS.dispatched,
        }

    # -- closing a cell ---------------------------------------------------
    def collect(self, windows: Sequence[Tuple[str, float, float]],
                totals: Dict[str, float], tag: str) -> None:
        """Fold this cell's spans into ``totals`` per window, write the
        raw spans out, and clear the log for the next cell."""
        if len(self.stack) != 1:
            raise RuntimeError("collect() inside an open span")
        n = len(self.t0)
        t0s, t1s, parents, names = self.t0, self.t1, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += t1s[i] - t0s[i]
        for label, ws, we in windows:
            count = [0] * len(SPAN_NAMES)
            incl = [0.0] * len(SPAN_NAMES)
            self_t = [0.0] * len(SPAN_NAMES)
            for i in range(n):
                a = t0s[i]
                if a >= ws and t1s[i] <= we:
                    nid = names[i]
                    d = t1s[i] - a
                    count[nid] += 1
                    incl[nid] += d
                    self_t[nid] += d - child[i]
            for nid, span in enumerate(SPAN_NAMES):
                if count[nid]:
                    for kind, v in (("count", count[nid]),
                                    ("incl", incl[nid]),
                                    ("self", self_t[nid])):
                        key = f"{label}/{span}/{kind}"
                        totals[key] = totals.get(key, 0) + v
        if self.out_dir is not None:
            self._dump(tag, windows)
        for arr in (self.name, self.parent, self.t0, self.t1):
            del arr[:]

    def _dump(self, tag: str, windows) -> None:
        """One file per cell: a JSON header line, then the four arrays."""
        os.makedirs(self.out_dir, exist_ok=True)
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in tag)
        path = os.path.join(self.out_dir, f"{safe}-{os.getpid()}.spans")
        header = {
            "names": SPAN_NAMES, "n": len(self.t0),
            "arrays": ["name:u16", "parent:i64", "start:f64", "end:f64"],
            "windows": [list(w) for w in windows],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.t0, self.t1):
                arr.tofile(fh)


def add_counter_delta(totals: Dict[str, float], before: Dict[str, object],
                      after: Dict[str, object]) -> None:
    for k, v in after.items():
        if k == "dpif":
            for dp_id, now in v.items():
                was = before["dpif"].get(dp_id)
                if was is None:
                    continue
                for f, a, b in zip(DPIF_FIELDS, was, now):
                    key = f"ctr/dpif.{f}"
                    totals[key] = totals.get(key, 0) + (b - a)
        else:
            key = f"ctr/{k}"
            totals[key] = totals.get(key, 0) + (v - before[k])


def merge_totals(parts: Iterable[Optional[Dict[str, float]]]
                 ) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for part in parts:
        for k, v in (part or {}).items():
            out[k] = out.get(k, 0) + v
    return out


# ----------------------------------------------------------------------
# Per-layer metrics.
# ----------------------------------------------------------------------
#: name -> unit, in report order.  Every traced run prints all of them;
#: a layer its workload bypasses reads 0 (checked by GUARDS).
PER_LAYER: Dict[str, str] = {
    "sim.charge_calls_per_pkt": "count",
    "sim.charge_self_us_per_pkt": "us",
    "net.clone_per_pkt": "count",
    "net.self_us_per_pkt": "us",
    "kernel.nic_self_us_per_pkt": "us",
    "kernel.datapath_self_us_per_pkt": "us",
    "ebpf.self_us_per_pkt": "us",
    "ebpf.xdp_memo_hit_ratio": "ratio",
    "ebpf.jit_run_ratio": "ratio",
    "afxdp.self_us_per_pkt": "us",
    "vhost.self_us_per_pkt": "us",
    "ovs.dpif_self_us_per_pkt": "us",
    "ovs.pmd_avg_batch": "count",
    "ovs.emc_hit_ratio": "ratio",
    "ovs.megaflow_hit_ratio": "ratio",
    "ovs.upcalls_per_kpkt": "count",
    "ovs.passes_per_pkt": "count",
    "ovs.dpjit_dispatch_ratio": "ratio",
    "ovs.translate_us_per_upcall": "us",
    "ovs.ct_self_us_per_pkt": "us",
    "ovs.flow_mod_us_per_rule": "us",
    "ovs.match_build_us_per_rule": "us",
    "ovs.bytes_per_rule": "bytes",
    "nsx.deploy_self_s": "s",
    "traffic.stream_build_s": "s",
    "shard.imbalance": "ratio",
    "shard.merge_s": "s",
    "shard.payload_bytes": "bytes",
    "shard.barriers": "count",
    "trace.overhead_ratio": "ratio",
}

_LAYER_SPANS = {
    "net": ("clone", "extract_flow", "encapsulate", "decapsulate"),
    "kernel.nic": ("nic.host_receive", "nic.service_queue",
                   "kernel.service_nic"),
    "afxdp": ("xsk.kernel_rx", "xsk.user_rx_batch", "xsk.user_tx_batch",
              "xsk.refill_fill_ring", "xsk.reap_completions"),
    "vhost": ("vhost.rx_burst", "vhost.tx_burst", "virtio.guest_service_rx"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(t: Dict[str, float], extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from summed totals.

    ``t["packets"]`` is the number of measured packets; ``extra`` carries
    what the workload measured itself (rule count, heap bytes per rule,
    shard report, trace overhead).  A traced run deploys at most once.
    """
    pk = t.get("packets", 0)

    def get(window: str, spans: Sequence[str], kind: str) -> float:
        return sum(t.get(f"{window}/{s}/{kind}", 0) for s in spans)

    def per_pkt_us(*spans: str) -> float:
        return _ratio(get("measure", spans, "self") * 1e6, pk)

    def ctr(name: str) -> float:
        return t.get(f"ctr/{name}", 0)

    xdp_runs = get("measure", ("xdp.run",), "count")
    prog_runs = ctr("jit.jit_runs") + ctr("jit.interp_runs")
    passes = ctr("dpif.passes")
    rules = extra.get("rules", 0)
    m = {
        "sim.charge_calls_per_pkt": _ratio(
            get("measure", ("charge", "charge_n"), "count"), pk),
        "sim.charge_self_us_per_pkt": per_pkt_us("charge", "charge_n"),
        "net.clone_per_pkt": _ratio(get("measure", ("clone",), "count"), pk),
        "net.self_us_per_pkt": per_pkt_us(*_LAYER_SPANS["net"]),
        "kernel.nic_self_us_per_pkt": per_pkt_us(*_LAYER_SPANS["kernel.nic"]),
        "kernel.datapath_self_us_per_pkt": per_pkt_us("kdp.receive"),
        "ebpf.self_us_per_pkt": per_pkt_us("xdp.run"),
        "ebpf.xdp_memo_hit_ratio": _ratio(xdp_runs - prog_runs, xdp_runs),
        "ebpf.jit_run_ratio": _ratio(ctr("jit.jit_runs"), prog_runs),
        "afxdp.self_us_per_pkt": per_pkt_us(*_LAYER_SPANS["afxdp"]),
        "vhost.self_us_per_pkt": per_pkt_us(*_LAYER_SPANS["vhost"]),
        "ovs.dpif_self_us_per_pkt": per_pkt_us("dpif.process_batch"),
        "ovs.pmd_avg_batch": _ratio(ctr("dpif.packets"), ctr("dpif.batches")),
        "ovs.emc_hit_ratio": _ratio(ctr("dpif.emc_hits"), passes),
        "ovs.megaflow_hit_ratio": _ratio(ctr("dpif.megaflow_hits"), passes),
        "ovs.upcalls_per_kpkt": _ratio(ctr("dpif.upcalls") * 1e3, pk),
        "ovs.passes_per_pkt": _ratio(passes, ctr("dpif.packets")),
        "ovs.dpjit_dispatch_ratio": _ratio(
            ctr("dpjit.dispatched"),
            ctr("dpif.emc_hits") + ctr("dpif.megaflow_hits")),
        "ovs.translate_us_per_upcall": _ratio(
            get("measure", ("ofproto.translate",), "incl") * 1e6,
            ctr("dpif.upcalls")),
        "ovs.ct_self_us_per_pkt": per_pkt_us("ct.process"),
        "ovs.flow_mod_us_per_rule": _ratio(
            get("setup", ("of.add_flow",), "incl") * 1e6, rules),
        "ovs.match_build_us_per_rule": _ratio(
            get("setup", ("match.init",), "incl") * 1e6, rules),
        "ovs.bytes_per_rule": extra.get("bytes_per_rule", 0.0),
        "nsx.deploy_self_s": get("setup", ("nsx.deploy",), "self"),
        "traffic.stream_build_s": get("setup", ("trex.init",), "incl"),
    }
    for name in ("shard.imbalance", "shard.merge_s", "shard.payload_bytes",
                 "shard.barriers", "trace.overhead_ratio"):
        m[name] = extra.get(name, 0.0)
    return m


# ----------------------------------------------------------------------
# Vacuousness guards: each boundary fires where its workload exercises
# it and stays at zero where the workload bypasses it, so a renamed or
# rerouted function cannot silently zero a layer.
# ----------------------------------------------------------------------
GUARDS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "fig9_cells": {
        "positive": (
            "sim.charge_calls_per_pkt", "sim.charge_self_us_per_pkt",
            "net.clone_per_pkt", "net.self_us_per_pkt",
            "kernel.nic_self_us_per_pkt", "kernel.datapath_self_us_per_pkt",
            "ebpf.self_us_per_pkt", "ebpf.xdp_memo_hit_ratio",
            "afxdp.self_us_per_pkt", "vhost.self_us_per_pkt",
            "ovs.dpif_self_us_per_pkt", "ovs.pmd_avg_batch",
            "ovs.emc_hit_ratio", "ovs.passes_per_pkt",
            "ovs.dpjit_dispatch_ratio", "traffic.stream_build_s",
            "shard.imbalance", "shard.barriers", "shard.payload_bytes",
        ),
        "zero": (
            "ovs.flow_mod_us_per_rule", "ovs.match_build_us_per_rule",
            "ovs.bytes_per_rule", "nsx.deploy_self_s",
        ),
    },
    "xdp_diverse": {
        "positive": (
            "sim.charge_calls_per_pkt", "ebpf.self_us_per_pkt",
            "ebpf.jit_run_ratio", "kernel.nic_self_us_per_pkt",
            "traffic.stream_build_s",
        ),
        "zero": (
            "ebpf.xdp_memo_hit_ratio", "kernel.datapath_self_us_per_pkt",
            "afxdp.self_us_per_pkt", "vhost.self_us_per_pkt",
            "ovs.dpif_self_us_per_pkt", "ovs.upcalls_per_kpkt",
            "ovs.ct_self_us_per_pkt", "nsx.deploy_self_s",
            "shard.barriers",
        ),
    },
    "nsx_overlay": {
        "positive": (
            "sim.charge_calls_per_pkt", "net.self_us_per_pkt",
            "ovs.dpif_self_us_per_pkt", "ovs.pmd_avg_batch",
            "ovs.upcalls_per_kpkt", "ovs.dpjit_dispatch_ratio",
            "ovs.translate_us_per_upcall", "ovs.ct_self_us_per_pkt",
            "ovs.flow_mod_us_per_rule", "ovs.match_build_us_per_rule",
            "ovs.bytes_per_rule", "nsx.deploy_self_s",
        ),
        "zero": (
            "afxdp.self_us_per_pkt", "kernel.nic_self_us_per_pkt",
            "kernel.datapath_self_us_per_pkt", "ebpf.self_us_per_pkt",
            "vhost.self_us_per_pkt", "traffic.stream_build_s",
            "shard.barriers",
        ),
    },
}


def check_guards(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Names of the guards that failed (empty when all hold)."""
    failed = []
    rules = GUARDS[workload]
    for name in rules["positive"]:
        if not metrics[name] > 0:
            failed.append(f"{name} should be > 0 on {workload}, "
                          f"got {metrics[name]!r}")
    for name in rules["zero"]:
        if metrics[name] != 0:
            failed.append(f"{name} should be 0 on {workload}, "
                          f"got {metrics[name]!r}")
    return failed


#: Layer -> spans, for the self-time table of the traced run.
LAYER_TABLE: Dict[str, Tuple[str, ...]] = {
    "sim": ("charge", "charge_n"),
    "net": _LAYER_SPANS["net"],
    "kernel.nic": _LAYER_SPANS["kernel.nic"],
    "kernel.datapath": ("kdp.receive",),
    "ebpf": ("xdp.run",),
    "afxdp": _LAYER_SPANS["afxdp"],
    "vhost": _LAYER_SPANS["vhost"],
    "ovs.dpif": ("dpif.process_batch",),
    "ovs.translate": ("ofproto.translate",),
    "ovs.ct": ("ct.process",),
}


def table(t: Dict[str, float], window_us: float) -> Dict[str, Dict]:
    """Per layer over the measured windows: self us and calls per packet
    and the share of ``window_us``, the traced windows' host us per
    packet.  ``unattributed`` is the time outside every wrapped
    boundary."""
    pk = t.get("packets", 0)
    rows: Dict[str, Dict] = {}
    attributed = 0.0
    for layer, spans in LAYER_TABLE.items():
        self_us = _ratio(sum(t.get(f"measure/{s}/self", 0)
                             for s in spans) * 1e6, pk)
        calls = _ratio(sum(t.get(f"measure/{s}/count", 0) for s in spans),
                       pk)
        attributed += self_us
        rows[layer] = {"self_us_per_pkt": self_us, "calls_per_pkt": calls,
                       "share": _ratio(self_us, window_us)}
    rest = window_us - attributed
    rows["unattributed"] = {"self_us_per_pkt": rest, "calls_per_pkt": 0.0,
                            "share": _ratio(rest, window_us)}
    return rows
