"""kkmlab's benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; kkmlab is imported from its ``src/``.
The workload runs in a worker process of its own (``worker.py``) with the
BLAS thread variables pinned to 1.  Set-up is timed from process start to
ready in several fresh processes; the last of them then runs the timed
passes.  Its outputs are checked here, in a separate process, against the
recorded reference at the default seed and against invariants at every seed.

Prints every metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits
non-zero without that line when no measurement could be made.  See
``perfbench/README.md``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # this process runs numpy in the checks
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import metric_names  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # processes timed from start to ready; setup_s is their median
DEADLINE_S = 170.0  # every worker is killed by then

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def git_sha(root: Path):
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(argv: list[str], deadline: float):
    """Start a worker; return it and the seconds it took to say ``ready``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise BenchError(f"worker exited with code {proc.returncode} before it was ready")
    return proc, watchdog, ready_s


def finish_worker(proc, watchdog) -> str:
    out = proc.stdout.read()
    code = proc.wait()
    watchdog.cancel()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: int, work: Path):
    """Set up SETUP_SAMPLES times, run the passes in the last worker; return
    the set-up times and the worker's result."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setup_s = []
    for i in range(SETUP_SAMPLES - 1):
        proc, watchdog, ready_s = start_worker(
            [*common, "--work-dir", str(work / f"setup-{i}"), "--setup-only"], deadline)
        finish_worker(proc, watchdog)
        setup_s.append(ready_s)
    proc, watchdog, ready_s = start_worker([*common, "--work-dir", str(work / "main")], deadline)
    setup_s.append(ready_s)
    try:
        lines = finish_worker(proc, watchdog).strip().splitlines()
        return setup_s, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result ({exc})") from None


def load_outputs(pass_dir: Path, first_pass: dict) -> dict:
    """{op: {file: text, "stdout": text}, "_exit": {op: exit code}} of one pass."""
    outputs = {"_exit": {op["name"]: op["exit"] for op in first_pass["ops"]}}
    for op in outputs["_exit"]:
        files = {str(p.relative_to(pass_dir / op)): p.read_text(encoding="utf-8")
                 for p in sorted((pass_dir / op).rglob("*")) if p.is_file()}
        files["stdout"] = (pass_dir / f"{op}.stdout").read_text(encoding="utf-8")
        outputs[op] = files
    return outputs


def content_problems(workload, seed: int, outputs: dict, reference: dict, work: Path):
    try:
        problems = workload.check(outputs, reference, work)
        if seed == workloads.DEFAULT_SEED:
            for op, found in workloads.compare_with_reference(outputs, reference).items():
                problems.setdefault(op, []).extend(found)
    except Exception as exc:  # malformed outputs fail their ops; they must not stop the run
        return {op: [f"outputs could not be checked: {exc!r}"] for op in outputs["_exit"]}
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kkmlab" / "__init__.py").is_file():
        print(f"error: no kkmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, result = measure(args.workload, args.seed, args.seconds, args.trace, work)
    except BenchError as exc:
        print(f"error: {exc}; outputs kept in {work}", file=sys.stderr)
        return 1

    passes = result["passes"]
    outputs = load_outputs(work / "main" / "pass-0", passes[0])
    content = content_problems(workloads.WORKLOADS[args.workload], args.seed, outputs,
                               reference, work / "main")
    attempted = failed = 0
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            op["problems"] += content.get(op["name"], [])
            failed += bool(op["problems"])
    problems = sorted({f"{op['name']}: {msg}" for p in passes for op in p["ops"]
                       for msg in op["problems"]} | set(result["problems"]))

    env = {"git_sha": git_sha(ROOT), "workload": args.workload, "seed": args.seed,
           **result["env"]}
    print("env " + json.dumps(env))
    if not env["blas_threads_pinned"]:
        print("warning: BLAS threads are not pinned to 1", file=sys.stderr)
    untraced = [p["run_s"] for p in passes if not p["traced"]]
    print(f"passes: {len(untraced)} untraced, {len(passes) - len(untraced)} traced; "
          f"untraced run_s " + ", ".join(f"{t:.4f}" for t in untraced))
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {name: statistics.median(p["layer"][name] for p in traced)
                   for name in traced[0]["layer"]}
        metrics["trace.run_s"] = statistics.median(p["run_s"] for p in traced)
        metrics["trace.untraced_run_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        units = dict(metric_names())
    else:
        metrics = {"run_s": statistics.median(untraced), "setup_s": statistics.median(setup_s),
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for msg in problems:
        print(f"problem: {msg}")

    correct = not problems
    if correct:
        shutil.rmtree(work)
    else:
        print(f"outputs kept in {work}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
