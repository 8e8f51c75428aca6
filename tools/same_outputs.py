"""Check that two commits write the same bytes on every op of the benchmark.

    python3 tools/same_outputs.py [--parent REV] [--change REV] [--seeds 42,5]
        [--scratch DIR]

Each side is a ``git archive`` checkout of its revision (default ``HEAD~1``
and ``HEAD``), made as ``tools/bench_pairs.py`` makes them and extracted in
turn into the same directory, so both sides run from the same paths.  For
each workload of the side's ``perfbench/workloads.py`` and each seed, a fresh
process with the side's ``src/`` on its path and the BLAS thread variables
pinned to 1 sets the workload up in one work directory and runs each of its
ops once, as ``perfbench/worker.py`` does.  Beside the workloads, a ``demo``
set runs ``cluster --method lloyd|approx|nystrom`` and ``rad-check`` on the
side's ``demos/risk_scan.cfg`` at each seed, and an ``optimal`` set prints
the ``repr`` of ``optimal_risk``'s value and its exact flag on
``standard_benchmark(k, seed=s)`` for k from 1 to 5 and on 11 atoms with
random weights for k from 1 to 3, and a ``large`` set runs ``cluster
--method lloyd|approx`` on 1025 points of ``workloads.blob_points``' recipe,
cases no workload reaches.  Each op's exit code, stdout, stderr and output
files are hashed.

Prints one line per workload, seed and op, ``same`` or ``DIFFERS`` with the
parts that differ, and exits 1 if any op differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
from bench_pairs import ROOT, THREAD_VARS, WORKLOADS, checkout

TOOLS = Path(__file__).resolve().parent
DEMO = "demo"  # the ops of ``demo_ops``, hashed beside the benchmark's workloads
OPTIMAL = "optimal"  # the ops of ``optimal_ops``, likewise
LARGE = "large"  # the ops of ``large_ops``, likewise
LARGE_N, LARGE_K = 1025, 5  # odd n past clustering's _WIDE_MIN_ROWS; blob_points keeps n // k * k


def demo_ops(root: Path, seed: int) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of the demo-config ops at one seed: ``cluster`` by each
    method and ``rad-check``, on ``demos/risk_scan.cfg`` of checkout ``root``."""
    common = ("--config", str(root / "demos" / "risk_scan.cfg"), "--seed", str(seed))
    return [*((f"cluster-{m}", ("cluster", *common, "--method", m))
              for m in ("lloyd", "approx", "nystrom")), ("rad-check", ("rad-check", *common))]


def large_ops(blob_points, work: Path, seed: int) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of the ``large`` ops at one seed: ``cluster --method lloyd``
    (10 restarts) and ``--method approx`` at k = 5 on ``blob_points(seed, 1025,
    5)``, written with its config into ``work``: the exact kernel Lloyd and
    local search on a Gram of an odd n of at least 1024 rows."""
    points = work / "large_points.csv"
    np.savetxt(points, blob_points(seed, LARGE_N, LARGE_K), fmt="%.17g", delimiter=",",
               header="x0,x1,x2", comments="")
    cfg = work / "large.cfg"
    cfg.write_text(f"""\
[kernel]
family = gaussian
bandwidth = 1.0

[data]
source = csv
path = {points}

[cluster]
k = {LARGE_K}
restarts = 10

[run]
master_seed = {seed}
workers = 1
""", encoding="utf-8")
    return [(f"cluster-{m}", ("cluster", "--config", str(cfg), "--method", m))
            for m in ("lloyd", "approx")]


def optimal_ops(kkmlab, seed: int) -> list[tuple[str, object]]:
    """(name, call) of the ``optimal`` ops at one seed: each call prints the
    ``repr`` of ``kkmlab.optimal_risk``'s value and its exact flag, on
    ``standard_benchmark(k, seed=seed)`` for k from 1 to 5, then on 11
    Gaussian atoms with random weights drawn from ``seed`` for k from 1 to 3."""

    def call(P, k):
        def run(out_dir):
            res = kkmlab.optimal_risk(P, k)
            print(repr(res.value), res.exact)
            return 0
        return run

    g = np.random.default_rng([seed, 11])
    w = g.random(11)
    atoms = kkmlab.DistributionSpec(g.normal(size=(11, 2)), w / w.sum(),
                                    kkmlab.KernelSpec("gaussian"))
    return [*((f"benchmark-k{k}", call(kkmlab.standard_benchmark(k, seed=seed), k))
              for k in range(1, 6)), *((f"atoms11-k{k}", call(atoms, k)) for k in range(1, 4))]


def run_op(call, out_dir: Path) -> dict[str, str]:
    """Run one op with its output captured: its exit code, and the sha256 of
    its stdout, its stderr (a traceback if it raised) and each output file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(out_dir)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}"
            err.write(traceback.format_exc())
    files = sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.is_dir() else []
    return {
        "exit": repr(code),
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        **{f"file {p.relative_to(out_dir)}": hashlib.sha256(p.read_bytes()).hexdigest()
           for p in files},
    }


def run_workload(root: Path, work: Path, workload: str, seed: int) -> dict[str, dict]:
    """Every op of one workload (or of ``DEMO``, ``OPTIMAL`` or ``LARGE``) at
    one seed, set up in ``work``: run in the child process that
    ``side_digests`` starts in checkout ``root``."""
    import kkmlab
    import kkmlab.cli
    import workloads

    if not Path(kkmlab.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported kkmlab from {kkmlab.__file__}, not from {root / 'src'}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload == OPTIMAL:
        return {f"{workload} seed {seed} {name}": run_op(call, work / "out" / name)
                for name, call in optimal_ops(kkmlab, seed)}
    if workload in (DEMO, LARGE):
        named = demo_ops(root, seed) if workload == DEMO else large_ops(
            workloads.blob_points, work, seed)
        ops = [workloads.Op(name, argv) for name, argv in named]
    else:
        ops = workloads.WORKLOADS[workload].setup(seed, work, root)
    digests = {}
    for op in ops:
        if op.argv:
            def call(out, argv=op.argv):
                return kkmlab.cli.main([*argv, "--output-dir", str(out)])
        else:
            call = workloads.library_call(kkmlab, work)
        digests[f"{workload} seed {seed} {op.name}"] = run_op(call, work / "out" / op.name)
    return digests


def side_digests(root: Path, work: Path, seeds: list[int]) -> dict[str, dict]:
    """``run_workload`` for every workload, ``DEMO``, ``OPTIMAL`` and ``LARGE``
    at every seed, each in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (TOOLS, root / "src", root / "perfbench"))
    code = ("import json, sys, same_outputs as s; from pathlib import Path; "
            "print(json.dumps(s.run_workload(Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3], "
            "int(sys.argv[4]))))")
    digests = {}
    for workload in (*WORKLOADS, DEMO, OPTIMAL, LARGE):
        for seed in seeds:
            proc = subprocess.run([sys.executable, "-c", code, str(root), str(work), workload,
                                   str(seed)], cwd=root, env=env, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            digests.update(json.loads(lines[-1]))
    return digests


def compare(parent: dict[str, dict], change: dict[str, dict]) -> tuple[list[str], bool]:
    """One line per op of either side, ``same`` or ``DIFFERS`` with the parts
    that differ, and whether any op differs."""
    lines, differs = [], False
    for op in [*parent, *(op for op in change if op not in parent)]:
        if op in parent and op in change and parent[op] == change[op]:
            lines.append(f"{op}: same")
            continue
        differs = True
        if op not in parent or op not in change:
            lines.append(f"{op}: DIFFERS (only the {'change' if op in change else 'parent'} ran it)")
        else:
            parts = sorted(k for k in parent[op].keys() | change[op].keys()
                           if parent[op].get(k) != change[op].get(k))
            lines.append(f"{op}: DIFFERS in {', '.join(parts)}")
    return lines, differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seeds", default="42,5", help="comma-separated workload seeds")
    parser.add_argument("--scratch", type=Path, default=ROOT / ".same_outputs")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    tree, work = args.scratch.resolve() / "tree", args.scratch.resolve() / "work"
    digests = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        sha = checkout(rev, tree)
        digests[side] = side_digests(tree, work, seeds)
        print(f"{side} {sha[:12]}: {len(digests[side])} ops run", file=sys.stderr)
    lines, differs = compare(digests["parent"], digests["change"])
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
