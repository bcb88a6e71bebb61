"""Equivalence harness: a layer that must change nothing changes nothing.

Each *axis* is one configuration that must be invisible to every
observable: the eBPF JIT off, the dp-JIT off, burst classification off,
the wall-clock memos off, both of those together (the per-packet
reference path), an inert telemetry session, an inert fault plan, 2 and
4 shard workers, and a plain trace recorder in place of the profiler.
For each registered experiment the harness runs the default
configuration once under :func:`repro.sim.profile.profiling`, reruns it
under every axis, and byte-diffs the trace ledger, the counter map and
the collapsed-stack flamegraph.  Each axis's guards then check that the
default run really exercised what the axis turns off, so no row passes
vacuously.

The *trip proofs* show the comparison has teeth: a run perturbed on
purpose — 1/1 sFlow sampling plus IPFIX, or a sharded merge replayed in
reverse unit order or with run-length groups collapsed — must diverge.

Usage::

    PYTHONPATH=src python -m repro.tools.equivalence

Prints one row per experiment x axis, then one per trip proof, and
exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from dataclasses import dataclass, field
from typing import (Callable, ContextManager, Dict, Iterator, Mapping,
                    Optional, Tuple)

from repro import telemetry
from repro.__main__ import EXPERIMENTS
from repro.ebpf import jit
from repro.ovs import dpif_netdev, dpjit
from repro.sim import fastpath, faults, profile, trace
from repro.sim.profile import collapse
from repro.telemetry import IpfixConfig, SflowConfig, Telemetry
from repro.telemetry.sflow import SAMPLE_POINTS


@dataclass(frozen=True)
class Experiment:
    """One workload, keyed by its ``python -m repro`` name."""

    name: str
    packets: int
    #: Extra keyword arguments for the module's ``run_<name>``.
    options: Mapping = field(default_factory=dict)
    #: Runs DpifNetdev, so its megaflows dispatch through the dp-JIT.
    dpif: bool = True

    def run(self, packets: Optional[int] = None, shards: int = 1,
            mutate_merge: Optional[str] = None) -> None:
        module = importlib.import_module(EXPERIMENTS[self.name][1])
        packets = packets or self.packets
        if mutate_merge is not None:
            # The public entry points never expose the merge mutation,
            # so route through run_units directly (fig9 only).
            from repro.sim.shard import run_units

            run_units(module.cell_units(packets, **self.options),
                      shards=shards, _mutate_merge=mutate_merge)
            return
        getattr(module, f"run_{self.name}")(
            packets=packets, shards=shards, **self.options)


REGISTRY: Dict[str, Experiment] = {e.name: e for e in (
    Experiment("fig2", 400),
    Experiment("fig9", 300, {"scenarios": ("P2P",)}),
    Experiment("table2", 400),
    # Pure XDP: no DpifNetdev, so no megaflow ever dispatches.
    Experiment("table5", 500, dpif=False),
)}


@dataclass(frozen=True)
class Observation:
    ledger: str
    counters: Dict[str, int]
    flame: str
    #: dp-JIT dispatches during the run, in this process.  A guard
    #: input only: it is exactly what ``dpjit_off`` changes.
    dpjit_dispatched: int = field(default=0, compare=False)


Guard = Callable[[Experiment, Observation], Optional[str]]


def nonempty(experiment: Experiment, obs: Observation) -> Optional[str]:
    if not (obs.ledger and obs.counters and obs.flame):
        return "vacuous run: no ledger/counters/flame recorded"
    return None


def ebpf_ran(experiment: Experiment, obs: Observation) -> Optional[str]:
    if not obs.counters.get("ebpf.runs"):
        return "vacuous run: no eBPF program ran"
    return None


def dpjit_dispatched(experiment: Experiment,
                     obs: Observation) -> Optional[str]:
    if experiment.dpif and not obs.dpjit_dispatched:
        return "vacuous run: no compiled megaflow dispatched"
    return None


@contextlib.contextmanager
def batching_off() -> Iterator[None]:
    """Classify every packet on its own (no burst classification)."""
    prev = dpif_netdev.BATCH_CLASSIFY
    dpif_netdev.BATCH_CLASSIFY = False
    try:
        yield
    finally:
        dpif_netdev.BATCH_CLASSIFY = prev


@contextlib.contextmanager
def reference_mode() -> Iterator[None]:
    """The per-packet reference path: no burst classify, no memos, no JIT."""
    with batching_off(), fastpath.disabled():
        yield


def _inert_fault_plan() -> ContextManager:
    return faults.injecting(faults.FaultPlan(seed=9, rules=[
        faults.FaultRule(point, rate=0.0) for point in faults.FAULT_POINTS]))


@dataclass(frozen=True)
class Axis:
    """One configuration compared against the default run."""

    name: str
    config: Callable[[], ContextManager] = contextlib.nullcontext
    shards: int = 1
    #: Checked on the default run: each returns a failure or None.
    guards: Tuple[Guard, ...] = (nonempty,)
    #: Record with a plain trace recorder instead of the profiler; only
    #: the ledger (which carries the counters) is compared.
    ledger_only: bool = False
    mutate_merge: Optional[str] = None


DEFAULT = Axis("default")

AXES: Dict[str, Axis] = {a.name: a for a in (
    Axis("ebpf_jit_off", jit.disabled, guards=(nonempty, ebpf_ran)),
    Axis("dpjit_off", dpjit.disabled, guards=(nonempty, dpjit_dispatched)),
    Axis("batching_off", batching_off),
    # fastpath.ENABLED gates the memos and, with them, both JITs.
    Axis("memo_off", fastpath.disabled),
    Axis("reference", reference_mode),
    Axis("telemetry_inert", lambda: telemetry.monitoring(Telemetry())),
    Axis("fault_plan_inert", _inert_fault_plan),
    Axis("shards2", shards=2),
    Axis("shards4", shards=4),
    Axis("trace_only", ledger_only=True),
)}


@dataclass(frozen=True)
class Trip:
    """A deliberate perturbation that must make ``proves``'s row fail."""

    proves: str
    experiments: Tuple[str, ...]
    mutation: Axis


TRIPS: Tuple[Trip, ...] = (
    Trip("telemetry_inert", tuple(REGISTRY),
         Axis("sampling_1in1", lambda: telemetry.monitoring(Telemetry(
             sflow=SflowConfig(rate=1, points=SAMPLE_POINTS),
             ipfix=IpfixConfig())))),
    Trip("shards2", ("fig9",),
         Axis("merge_reorder", shards=2, mutate_merge="reorder")),
    Trip("shards2", ("fig9",),
         Axis("merge_collapse", shards=2, mutate_merge="collapse")),
)


def observe(experiment: str, axis: Axis = DEFAULT,
            packets: Optional[int] = None) -> Observation:
    """One recorded run of ``experiment`` under ``axis``."""
    dispatched = dpjit.STATS.dispatched
    recorder = trace.recording if axis.ledger_only else profile.profiling
    with axis.config(), recorder() as rec:
        REGISTRY[experiment].run(packets, shards=axis.shards,
                                 mutate_merge=axis.mutate_merge)
    flame = "" if axis.ledger_only else collapse(rec.profiler.root)
    return Observation(rec.ledger(), dict(rec.counters), flame,
                       dpjit.STATS.dispatched - dispatched)


def diff(a: Observation, b: Observation,
         ledger_only: bool = False) -> Optional[str]:
    """The first observable that differs, or None when byte-identical."""
    if a.ledger != b.ledger:
        return "trace ledger differs"
    if ledger_only:
        return None
    if a.counters != b.counters:
        changed = {
            k: (a.counters.get(k), b.counters.get(k))
            for k in sorted(set(a.counters) | set(b.counters))
            if a.counters.get(k) != b.counters.get(k)
        }
        return f"counters differ: {changed!r}"
    if a.flame != b.flame:
        return "collapsed-stack flamegraph differs"
    return None


def check(experiment: str, axis: Axis, base: Observation) -> Optional[str]:
    """One row: ``axis`` against the default run ``base``, then guards."""
    failure = diff(base, observe(experiment, axis), axis.ledger_only)
    for guard in axis.guards:
        failure = failure or guard(REGISTRY[experiment], base)
    return failure


def prove_trip(trip: Trip, bases: Mapping[str, Observation]) -> Optional[str]:
    """A failure unless ``trip.mutation`` diverges on every experiment."""
    for experiment in trip.experiments:
        if diff(bases[experiment], observe(experiment, trip.mutation)) is None:
            return (f"{experiment}: {trip.mutation.name} changed nothing, "
                    f"so the {trip.proves} row is vacuous")
    return None


def _row(label: str, failure: Optional[str]) -> bool:
    print(f"{label} {'FAIL  ' + failure if failure else 'OK'}")
    return failure is not None


def main() -> int:
    failed = False
    bases = {}
    for name in REGISTRY:
        bases[name] = observe(name)
        for axis in AXES.values():
            failed |= _row(f"{name:8s} {axis.name:16s}",
                           check(name, axis, bases[name]))
    for trip in TRIPS:
        failed |= _row(f"{'trip':8s} {trip.mutation.name:16s}",
                       prove_trip(trip, bases))
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    if sys.argv[1:]:
        raise SystemExit("usage: python -m repro.tools.equivalence "
                         "(takes no arguments)")
    raise SystemExit(main())
