"""Run the benchmark twice on ten seeds per workload and record the baseline.

    python3 perfbench/baseline.py     # writes perfbench/baseline.json

Workloads are interleaved, and the first workload rotates from seed to
seed, so that a machine whose speed drifts over minutes spreads the drift
over every workload instead of loading it onto one. The ten seeds are run
as two sets, one after the other. For every end-to-end metric and set the
record holds the ten values, their median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
and for the pair of sets the change of the second median against the
first; both are compared with the metric's bound. A traced run per
workload at the first seed adds the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / "perfbench" / "baseline.json"
SEEDS = range(1, 11)
SETS = 2
NOTE = re.compile(r"^  (\S+)\s+\S+\s+\S*\s+(.*)$")
PRINTED = re.compile(r"^  (\S+)\s+(-?\d[\d.e+-]*)\s")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - t0
    result["notes"] = {m[1]: m[2].strip() for m in map(NOTE.match, lines[:-1]) if m}
    result["printed"] = {m[1]: float(m[2]) for m in map(PRINTED.match, lines[:-1]) if m}
    print(f"{workload} seed {seed} trace {trace}: {result['run_s']:.1f} s, "
          + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if trace == 0),
          flush=True)
    return result


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def one_set(runs: list, metric: dict) -> dict:
    out = quartiles([r["metrics"][metric["name"]]["value"] for r in runs])
    out["samples_per_run"] = [r["notes"].get(metric["name"], "") for r in runs]
    out["within_third_of_bound"] = out["spread"] < metric["bound"] / 3
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs: dict[str, list] = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for seed in SEEDS:
            k = seed % len(names)
            for w in names[k:] + names[:k]:
                runs[w][s].append(bench(w, seed, seconds, 0))
    traced = {w: bench(w, SEEDS[0], seconds, 1) for w in names}

    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "sets": SETS,
        "workloads": {},
    }
    for w in names:
        flat = [r for runs_of_set in runs[w] for r in runs_of_set]
        out: dict = {
            "attempted": [r["attempted"] for r in flat],
            "failed": sum(r["failed"] for r in flat),
            "run_s": [round(r["run_s"], 1) for r in flat],
            "end_to_end": {},
            "per_layer_seed1": {k: v["value"] for k, v in traced[w]["metrics"].items()},
        }
        for m in spec["end_to_end"]:
            sets = [one_set(runs_of_set, m) for runs_of_set in runs[w]]
            first, last = sets[0]["median"], sets[-1]["median"]
            worse = (last - first) / first * (1 if m["better"] == "lower" else -1)
            out["end_to_end"][m["name"]] = {
                "unit": m["unit"],
                "bound": m["bound"],
                "sets": sets,
                "second_median_worse_by": worse,
                "second_median_within_bound": worse <= m["bound"],
            }
            print(f"{w:9} {m['name']:14} medians "
                  + " ".join(f"{s['median']:.6g}" for s in sets) + f" {m['unit']:3} spreads "
                  + " ".join(f"{s['spread']:.3f}" for s in sets)
                  + f", second worse by {worse:+.3f} (bound {m['bound']})")
        # printed by run.py but not in BENCHMARK.json: their spreads show why
        gated = {m["name"] for m in spec["end_to_end"]}
        printed = [k for k in flat[0]["printed"] if k not in gated]
        out["printed_only"] = {
            k: [quartiles([r["printed"][k] for r in runs_of_set]) for runs_of_set in runs[w]]
            for k in printed
        }
        record["workloads"][w] = out
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(o["failed"] == 0 for o in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
