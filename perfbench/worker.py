"""One workload process: set up, say ``ready``, run timed passes, report.

Started by ``run.py``; not meant to be run by hand.  Its first stdout line is
``ready`` once kkmlab is imported and the inputs exist, and its last is one
JSON object with the pass times, the per-pass op outcomes, the per-layer
metrics of the traced passes, the peak RSS and the environment.

A pass runs every op of the workload once, in this process, with stdout and
stderr captured.  Its ``run_s`` starts at the first call into kkmlab and ends
when the last op has written its output.  Passes repeat while another one
fits in ``--seconds``; there is always at least one.  With ``--trace 1`` an
untraced pass and a traced one alternate, and the traced outputs must equal
the untraced ones byte for byte, as must every later pass.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> dict:
    """The BLAS numpy was built with and, for OpenBLAS, its live thread count."""
    import numpy as np

    info = {"numpy": np.__version__}
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so"))
    if libs:
        lib = ctypes.CDLL(libs[0])  # already loaded by numpy: same handle
        try:
            threads, core = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_get_corename64_
        except AttributeError:  # another OpenBLAS build: thread count unknown
            return info
        threads.restype, core.restype = ctypes.c_int, ctypes.c_char_p
        info["blas_threads"] = threads()
        info["blas_core"] = core().decode()
    return info


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        **blas_info(),
    }
    env["blas_threads_pinned"] = (all(env[v] == "1" for v in THREAD_VARS)
                                  and env.get("blas_threads", 1) == 1)
    return env


def run_op(call, op, out_dir: Path) -> dict:
    """Run one op with its output captured; return its outcome."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(out_dir)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:
            error = traceback.format_exc()
    return {"name": op.name, "exit": code, "error": error,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def op_problems(op, outcome: dict) -> list[str]:
    problems = []
    if outcome["error"] is not None:
        problems.append("raised " + outcome["error"].strip().splitlines()[-1])
    if "Traceback (most recent call last)" in outcome["stdout"] + outcome["stderr"]:
        problems.append("printed a traceback")
    if outcome["exit"] not in op.exits:
        problems.append(f"exit code {outcome['exit']!r}, expected one of {op.exits}")
    elif outcome["exit"] == 1 and "violated" not in outcome["stdout"]:
        problems.append("exit code 1 without a 'violated' line")
    return problems


def read_tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


class Runner:
    def __init__(self, ops, calls, work: Path):
        self.ops, self.calls, self.work = ops, calls, work
        self.passes: list[dict] = []
        self.first_outputs = None

    def run_pass(self, tracer=None) -> dict:
        index = len(self.passes)
        pass_dir = self.work / f"pass-{index}"
        pass_dir.mkdir(parents=True)
        outcomes = []
        start = time.perf_counter()
        for op, call in zip(self.ops, self.calls):
            if tracer is not None:
                tracer.op = op.name
            outcomes.append(run_op(call, op, pass_dir / op.name))
        run_s = time.perf_counter() - start

        outputs = {op.name: read_tree(pass_dir / op.name) for op in self.ops}
        for op, outcome in zip(self.ops, outcomes):
            outputs[op.name]["stdout"] = outcome["stdout"].encode()
            outcome["problems"] = op_problems(op, outcome)
        if self.first_outputs is None:
            self.first_outputs = outputs
            for op, outcome in zip(self.ops, outcomes):
                for stream in ("stdout", "stderr"):
                    (pass_dir / f"{op.name}.{stream}").write_text(outcome[stream], encoding="utf-8")
        else:
            for op, outcome in zip(self.ops, outcomes):
                if outputs[op.name] != self.first_outputs[op.name]:
                    outcome["problems"].append(f"outputs of pass {index} differ from pass 0")
            shutil.rmtree(pass_dir)
        record = {
            "run_s": run_s,
            "traced": tracer is not None,
            "ops": [{k: o[k] for k in ("name", "exit", "problems")} for o in outcomes],
        }
        if tracer is not None:
            record["layer"] = tracer.metrics(run_s)
            record["layer"]["cli.bytes_written"] = sum(
                len(data) for op in self.ops if op.argv
                for name, data in outputs[op.name].items() if name != "stdout")
        self.passes.append(record)
        return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import kkmlab
    import kkmlab.cli

    if not Path(kkmlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported kkmlab from {kkmlab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    args.work_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload].setup(args.seed, args.work_dir, ROOT)
    calls = [
        (lambda out, argv=op.argv: kkmlab.cli.main([*argv, "--output-dir", str(out)]))
        if op.argv else workloads.library_call(kkmlab, args.work_dir)
        for op in ops
    ]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(ops, calls, args.work_dir)
    begin = time.perf_counter()
    round_s = []
    while True:  # another round only if it should end within --seconds
        start = time.perf_counter()
        runner.run_pass()
        if len(runner.passes) == 1:
            # a CLI user runs one pass per process; later passes reuse its memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            with Tracer(kkmlab) as tracer:
                runner.run_pass(tracer)
        round_s.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(round_s) > args.seconds:
            break

    problems = []
    traced = [p["layer"] for p in runner.passes if p["traced"]]
    counts = [{k: v for k, v in layer.items() if isinstance(v, int)} for layer in traced]
    if any(c != counts[0] for c in counts):
        problems.append("traced passes disagree on their counts")

    result = {
        "passes": runner.passes,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
        "problems": problems,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
