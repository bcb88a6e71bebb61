"""Print the full benchmark report: every workload, untraced, traced and
with each fast-path layer switched off.

    python3 perfbench/report.py [--seed 0] [--seconds S]

Every run is a fresh ``perfbench/run.py`` process, ``--seconds``
defaulting to ``run_seconds`` of ``BENCHMARK.json``.  The report prints
the end-to-end metrics with unit and workload, each fast-path layer's
marginal ``host_us_per_pkt`` (ablated over all-on), and the traced
per-layer table: self microseconds per packet, calls per packet, share
of the traced host time and the per-layer ratios.  Every row names the
manifest of the run that produced it; the manifests follow the tables.
It also checks that all runs of a workload reproduce one virtual-output
digest.  Exits 1 if any run is incorrect or any digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
from perfbench.run import run_seconds  # noqa: E402
from perfbench.workloads import ABLATIONS, WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int,
        ablate: Optional[str] = None) -> Dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if ablate:
        cmd += ["--ablate", ablate]
    print(f"running {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr}")
    detail = json.loads(lines[-2].split("detail: ", 1)[1])
    result = json.loads(lines[-1])
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    args = parser.parse_args(argv)

    manifests: List[Dict] = []

    def manifest_id(doc: Dict) -> str:
        manifests.append(doc)
        return f"m{len(manifests)}"

    runs: Dict[str, Dict] = {}
    for name in WORKLOADS:
        runs[name] = {
            "base": run(name, args.seed, args.seconds, 0),
            "traced": run(name, args.seed, args.seconds, 1),
            "ablations": {a: run(name, args.seed, args.seconds, 0, a)
                          for a in ABLATIONS},
        }

    ok = True
    print(f"{'workload':12s} {'metric':18s} {'value':>14s} {'unit':5s} "
          f"{'correct':7s} manifest")
    for name, r in runs.items():
        base = r["base"]
        mid = manifest_id(base["detail"]["manifest"])
        for metric, v in base["result"]["metrics"].items():
            print(f"{name:12s} {metric:18s} {v['value']:14.6g} "
                  f"{v['unit']:5s} {str(base['result']['correct']):7s} {mid}")

    print("\nfast-path ablation: host_us_per_pkt with one layer off "
          "(marginal = off / all on)")
    print(f"{'workload':12s} {'layer off':10s} {'us/pkt':>10s} "
          f"{'marginal':>9s} {'digest':8s} manifest")
    for name, r in runs.items():
        base_us = r["base"]["result"]["metrics"]["host_us_per_pkt"]["value"]
        for layer, a in r["ablations"].items():
            us = a["result"]["metrics"]["host_us_per_pkt"]["value"]
            same = a["detail"]["digest"] == r["base"]["detail"]["digest"]
            print(f"{name:12s} {layer:10s} {us:10.3f} {us / base_us:9.3f} "
                  f"{'same' if same else 'DIFFERS':8s} "
                  f"{manifest_id(a['detail']['manifest'])}")

    for name, r in runs.items():
        t = r["traced"]
        mid = manifest_id(t["detail"]["manifest"])
        print(f"\nper-layer self time, {name} (traced run, manifest {mid})")
        print(f"  {'layer':16s} {'self us/pkt':>12s} {'calls/pkt':>10s} "
              f"{'share':>7s}")
        for layer, row in t["detail"]["layer_table"].items():
            print(f"  {layer:16s} {row['self_us_per_pkt']:12.3f} "
                  f"{row['calls_per_pkt']:10.3f} {row['share']:7.1%}")
        print("  per-layer metrics:")
        for metric, v in t["result"]["metrics"].items():
            print(f"    {metric:34s} {v['value']:14.6g} {v['unit']}")

    print("\ndigests and checks")
    digests = {}
    for name, r in runs.items():
        all_runs = [r["base"], r["traced"], *r["ablations"].values()]
        got = {x["detail"]["digest"] for x in all_runs}
        digests[name] = next(iter(got))
        correct = all(x["result"]["correct"] for x in all_runs)
        ok &= correct and len(got) == 1
        agree = (f"one digest over {len(all_runs)} runs" if len(got) == 1
                 else "DIGESTS DIFFER")
        print(f"  {name:12s} digest {digests[name][:16]}  {agree}  "
              f"{'all correct' if correct else 'INCORRECT RUN'}")
        for x in all_runs:
            for c in x["detail"]["checks"]:
                if not c["ok"]:
                    print(f"    failed: {c['check']}: {c['detail']}")
    print("\nmanifests")
    for i, doc in enumerate(manifests, 1):
        print(f"  m{i}: {json.dumps(doc, sort_keys=True)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
