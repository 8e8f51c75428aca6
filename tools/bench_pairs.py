"""Compare two commits on the benchmark in alternating pairs; write BENCH_<label>.json.

    python3 tools/bench_pairs.py --label NAME --seed0 S [--pairs 10]
        [--parent REV] [--change REV] [--traced W,W,...] [--scratch DIR]
        [--note TEXT]

Each side is a fresh ``git archive`` checkout under ``--scratch``: the parent
commit (default ``HEAD~1``) and the change (default ``HEAD``).  Pair i runs
``perfbench/run.py --workload W --seed S+i --seconds 20 --trace 0`` on both
sides for each of the four workloads in turn, so the workloads are
interleaved and each pair has a seed of its own; the side that runs first
alternates from pair to pair.  The seconds are ``BENCHMARK.json``'s
``run_seconds``.  ``--traced`` workloads then get one ``--trace 1`` run per
side at the reference seed 42, and every per-layer metric is recorded.

The JSON holds both shas, the seeds, the environment (cores, Python, numpy,
BLAS, thread variables, machine), every run's end-to-end metrics, and per
workload and metric each side's median and quartiles (linear interpolation),
the median change, the parent's interquartile range,
``change_better_pairs``, the number of pairs in which the change's value was
lower (every end-to-end metric is better lower), and a ``verdict`` (gain,
worse, unresolved or no worse) against ``BENCHMARK.json``'s bound, which is
also printed.  It is written to
``BENCH_<label>.json`` at the repository root; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("risk-surrogate-k4", "risk-scan-demo", "cluster-n2048", "enumeration")
METRICS = ("run_s", "setup_s", "peak_rss_mb")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_SEED = 42


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> str:
    """Extract ``rev``'s tree into an empty ``dest``; return its full sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` invocation in ``side``: its JSON line and env."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{side.name} {workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    run_env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return {"result": result, "env": run_env}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """The change against its parent on one lower-is-better metric, by the
    rules for claiming a gain in a small sandbox:

    - ``gain``: the change is lower in at least nine tenths of the pairs (ties
      count for neither) and its median lower by more than the parent's IQR
    - ``worse``: its median exceeds the parent's by more than ``bound``, a
      share of the parent's median
    - ``unresolved``: the parent's IQR is wider than the bound, unless every
      run of the change is lower than every run of the parent
    - ``no worse``: otherwise
    """
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    better = sum(b < a for a, b in zip(parent, change))
    if 10 * better >= 9 * len(parent) and p["median"] - c["median"] > iqr:
        return "gain"
    if c["median"] > (1.0 + bound) * p["median"]:
        return "worse"
    if iqr > bound * p["median"] and not max(change) < min(parent):
        return "unresolved"
    return "no worse"


def summarize(pairs: list[dict], bounds: dict, workload: str = "") -> dict:
    """Per metric: each side's quartiles, the pairs the change won, the median
    change, the parent's IQR and the ``verdict`` against ``bounds[metric]``,
    each verdict also printed to stderr."""
    summary = {}
    for name in METRICS:
        side = {s: [p[s][name] for p in pairs] for s in ("parent", "change")}
        stats = {s: quartiles(v) for s, v in side.items()}
        parent_median = stats["parent"]["median"]
        summary[name] = {
            **stats,
            "change_better_pairs": sum(c < p for p, c in zip(side["parent"], side["change"])),
            "median_change": f"{100.0 * (stats['change']['median'] / parent_median - 1.0):+.1f}%",
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "verdict": verdict(side["parent"], side["change"], bounds[name]),
        }
        print(f"{workload} {name}: {summary[name]['verdict']} (median {parent_median:.4g} -> "
              f"{stats['change']['median']:.4g}, {summary[name]['median_change']}, "
              f"{summary[name]['change_better_pairs']}/{len(pairs)} pairs lower)", file=sys.stderr)
    return summary


def environment(run_env: dict) -> dict:
    return {
        "cores": os.cpu_count(),
        "nproc": run_env.get("nproc"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": run_env.get("blas"),
        "blas_core": run_env.get("blas_core"),
        "thread_env": {
            "calling_shell": {v: os.environ.get(v) for v in THREAD_VARS},
            "worker": {v: run_env.get(v) for v in THREAD_VARS},
            "worker_blas_threads": run_env.get("blas_threads"),
        },
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed0", type=int, required=True, help="pair i runs on seed0 + i")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--traced", default="", help="workloads traced once per side at seed 42")
    parser.add_argument("--scratch", type=Path, default=ROOT / ".bench_pairs")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    traced = [w for w in args.traced.split(",") if w]
    if args.pairs < 1 or not set(traced) <= set(WORKLOADS):
        parser.error(f"need --pairs >= 1 and traced workloads among {', '.join(WORKLOADS)}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    sides = {s: args.scratch / s for s in ("parent", "change")}
    shas = {s: checkout(rev, sides[s]) for s, rev in (("parent", args.parent),
                                                        ("change", args.change))}
    seeds = [args.seed0 + i for i in range(args.pairs)]
    per_workload = {w: {"seeds": seeds, "pairs": []} for w in WORKLOADS}
    run_env = {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in WORKLOADS:
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for s in order:
                out = run_once(sides[s], w, seed, seconds, 0)
                run_env = run_env or out["env"]
                r = out["result"]
                pair[s] = {**{m: r["metrics"][m]["value"] for m in METRICS},
                           "correct": r["correct"], "attempted": r["attempted"],
                           "failed": r["failed"]}
                print(f"pair {i} seed {seed} {w} {s}: run_s {pair[s]['run_s']:.4f} "
                      f"correct {r['correct']} failed {r['failed']}", file=sys.stderr)
            per_workload[w]["pairs"].append(pair)
    for w in WORKLOADS:
        per_workload[w]["summary"] = summarize(per_workload[w]["pairs"], bounds, w)

    traced_runs = {}
    for w in traced:
        traced_runs[w] = {}
        for s in ("parent", "change"):
            r = run_once(sides[s], w, REFERENCE_SEED, seconds, 1)["result"]
            traced_runs[w][s] = {"correct": r["correct"], "failed": r["failed"],
                                 **{m: v["value"] for m, v in r["metrics"].items()}}
            print(f"traced {w} {s}: correct {r['correct']}", file=sys.stderr)

    bench = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0",
        "method": (f"{args.pairs} pairs per workload, pair i on seed {args.seed0} + i, shared "
                   "by the workloads; each side runs in a git archive checkout of its commit; "
                   "the side that runs first alternates from pair to pair, and the workloads "
                   "are interleaved within each pair; quartiles by linear interpolation; "
                   "change_better_pairs counts pairs where the change's value is lower"),
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "environment": environment(run_env),
        "note": args.note,
        "workloads": per_workload,
    }
    if traced:
        bench["traced"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {REFERENCE_SEED} "
                       f"--seconds {seconds:g} --trace 1",
            "method": "one traced run per side and workload after the pairs, in the same "
                      "checkouts",
            **traced_runs,
        }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
