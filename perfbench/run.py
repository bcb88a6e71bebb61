"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig9_cells --seed 0 --trace 0

Each invocation is one fresh process with the garbage collector left on.
It repeats identical rounds of the workload for ``--seconds`` (at least
``MIN_ROUNDS``; the default is ``run_seconds`` of ``BENCHMARK.json``).
Each round's measured windows are cut per offered burst, and every
burst's time is its fastest over the rounds (see ``host_us_per_pkt``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs one
traced round (spans written under ``--out-dir``) and prints the
per-layer metrics.  ``--ablate LAYER`` turns one fast-path layer off
for the whole run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, ``detail: {...}``, carries the run manifest, digests, checks and
the per-layer table for ``perfbench/report.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 3
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")


def run_seconds() -> float:
    """The run length ``BENCHMARK.json`` states, the default here."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def _git_commit() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def manifest(seed: int, ablate: Optional[str], wall_s: float) -> Dict:
    from perfbench import workloads
    from repro.sim.shard import default_start_method, usable_cpus

    cpus = usable_cpus()
    return {
        "commit": _git_commit(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "seed": seed,
        "gc": {"enabled": gc.isenabled(), "thresholds": gc.get_threshold()},
        "host": platform.node(),
        "machine": f"{platform.machine()} {platform.platform()}",
        "usable_cpus": cpus,
        "start_method": default_start_method(),
        "switches": workloads.switches(),
        "ablate": ablate,
        "wall_s": wall_s,
        # The >=3x sharding bound is stated at 4 workers on >=4 CPUs.
        "shard_3x_bound": (
            f"unverified: {cpus} usable CPUs < 4" if cpus < 4 else
            f"unverified: this benchmark shards over {workloads.SHARDS} "
            "workers, the bound is stated at 4"),
    }


def digest(ops) -> str:
    blob = json.dumps([[op.key, op.output] for op in ops], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def invariants(workload: str, ops) -> List[str]:
    """Properties every seed's outputs must have."""
    from perfbench.workloads import NSX_PACKETS

    bad = []
    for op in ops:
        if op.failed:
            bad.append(f"{op.key}: {op.output['error']}")
        elif workload == "nsx_overlay":
            o = op.output
            want = {"rules": 103_302, "tables": 40,
                    "uplink_tx_packets": NSX_PACKETS}
            for k, v in want.items():
                if o[k] != v:
                    bad.append(f"nsx {k} = {o[k]}, expected {v}")
            d = o["dpif"]
            if d["packets"] != NSX_PACKETS or d["dropped"] or d["lost"]:
                bad.append(f"nsx datapath lost packets: {d}")
        elif workload == "xdp_diverse":
            if not op.output > 0:
                bad.append(f"task {op.key}: {op.output} Mpps")
        elif not op.output[0] > 0:
            bad.append(f"cell {op.key}: {op.output[0]} Mpps")
    return bad


def host_us_per_pkt(rounds) -> float:
    """Host microseconds per measured packet.

    Every round offers the same bursts, so the measured windows are cut
    per burst.  Each burst counts with its fastest time over the rounds:
    on a shared host, co-tenants slow whole stretches of a run down by a
    half and more, while the fastest of a burst's repeats stays near
    its cost on an unshared core.  The bursts are summed.
    """
    by_burst: Dict[tuple, List[float]] = {}
    for ops in rounds:
        for op in ops:
            for i, c in enumerate(op.chunks):
                by_burst.setdefault((op.key, i), []).append(c)
    packets = sum(op.packets for op in rounds[0])
    return sum(min(v) for v in by_burst.values()) / packets * 1e6


def setup_seconds(rounds, samples: List[float]) -> float:
    """Host set-up seconds: the fastest of the workload's own set-ups,
    or per operation the fastest over the rounds, summed."""
    if samples:
        return min(samples)
    by_key: Dict[str, List[float]] = {}
    for ops in rounds:
        for op in ops:
            by_key.setdefault(op.key, []).append(op.setup_s)
    return sum(min(v) for v in by_key.values())


def peak_rss_mb() -> float:
    """Largest resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    def __init__(self) -> None:
        self.items: List[Dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.items)


def check_digests(w, name: str, seed: int, rounds, checks: Checks) -> str:
    digests = [digest(ops) for ops in rounds]
    checks.add("rounds reproduce one digest", len(set(digests)) == 1,
               f"{len(set(digests))} distinct over {len(digests)} rounds")
    with open(DIGESTS) as fh:
        committed = json.load(fh)
    if seed == committed["seed"]:
        want = committed["digests"][name]
        checks.add(f"digest equals committed seed-{seed} digest",
                   digests[0] == want, f"{digests[0]} vs {want}")
    got = digest(w.seed_free_ops(rounds, committed["seed"]))
    want = committed["seed_free"][name]
    checks.add("seed-free outputs equal committed digest", got == want,
               f"{got} vs {want}")
    bad = [msg for ops in rounds for msg in invariants(name, ops)]
    checks.add("output invariants", not bad, "; ".join(sorted(set(bad)))[:500])
    return digests[0]


def window_us(ops) -> float:
    return sum(op.measure_s for op in ops) / sum(op.packets for op in ops) * 1e6


def traced_run(w, name: str, untraced_rounds, out_dir: str, checks: Checks,
               want_digest: str, ablate: Optional[str]):
    """One traced round; returns (per-layer metrics, layer table, ops)."""
    from perfbench import layers, workloads

    log = layers.SpanLog(os.path.join(out_dir, "spans", name))
    log.install()
    w.log = log
    setup_totals: Dict[str, float] = {}
    try:
        if name == "nsx_overlay":
            setup_totals = w.traced_setup(log)
        ops = w.round()
    finally:
        log.uninstall()
        w.log = None
    checks.add("traced round reproduces the digest",
               digest(ops) == want_digest)
    totals = layers.merge_totals([setup_totals] + [op.layer for op in ops])
    extra = {"trace.overhead_ratio": window_us(ops) / statistics.median(
        window_us(r) for r in untraced_rounds)}
    if name == "nsx_overlay":
        extra["rules"] = w.world.stats.n_rules
        extra["bytes_per_rule"] = w.deploy_rss_bytes / extra["rules"]
    table = layers.table(totals, window_us(ops))
    if name == "fig9_cells":
        # The shard layer: the same cells once more, untraced, through
        # run_units; the merged outputs must equal the serial ones.
        sharded, shard_metrics = workloads.fig9_sharded(w.seed, ablate)
        checks.add("sharded cells equal the serial cells",
                   digest(sharded) == want_digest)
        extra.update(shard_metrics)
        ops += sharded
    metrics = layers.derive(totals, extra)
    failed = layers.check_guards(name, metrics)
    checks.add("per-layer vacuousness guards", not failed, "; ".join(failed))
    return metrics, table, ops


def main(argv=None) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import layers, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ablate", default=None, choices=workloads.ABLATIONS,
                        help="turn one fast-path layer off")
    parser.add_argument("--out-dir", default=".perfbench",
                        help="where traced runs write their spans")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no simulator source under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    name = args.workload
    started = time.perf_counter()
    workloads.apply_ablation(args.ablate)
    w = workloads.WORKLOADS[name](args.seed, args.ablate)
    setup_samples = w.prepare()
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(w.round())

    checks = Checks()
    run_digest = check_digests(w, name, args.seed, rounds, checks)
    e2e = {
        "host_us_per_pkt": (host_us_per_pkt(rounds), "us"),
        "setup_s": (setup_seconds(rounds, setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    ops = [op for r in rounds for op in r]
    detail = {
        "workload": name,
        "digest": run_digest,
        "rounds": len(rounds),
        "end_to_end": {k: v for k, (v, _u) in e2e.items()},
        # Per round, per operation: [key, setup_s, measure_s, packets].
        "samples": [[[op.key, op.setup_s, op.measure_s, op.packets]
                     for op in r] for r in rounds],
        "setup_samples": setup_samples,
    }
    if args.trace:
        metrics, table, traced_ops = traced_run(
            w, name, rounds, args.out_dir, checks, run_digest, args.ablate)
        ops += traced_ops
        detail["per_layer"] = metrics
        detail["layer_table"] = table
        result = {k: {"value": v, "unit": layers.PER_LAYER[k]}
                  for k, v in metrics.items()}
    else:
        result = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    detail["checks"] = checks.items
    detail["manifest"] = manifest(args.seed, args.ablate,
                                  time.perf_counter() - started)

    for k, v in result.items():
        print(f"{name:12s} {k:34s} {v['value']:14.6g} {v['unit']}")
    failed = sum(op.failed for op in ops)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": checks.ok and not failed,
        "attempted": len(ops),
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
