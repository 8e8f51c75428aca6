"""Record the reference outputs that ``run.py`` compares against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one untraced pass of each workload (all by default) at the default
seed and stores its outputs, exit codes and stdout in
``perfbench/reference/<workload>.json``; a CSV too large to store whole is
kept as a sample of its lines plus column sums.  Record from an unmodified
commit: a reference is what later commits must reproduce.
"""

import json
import shutil
import sys

import run
import workloads


def record(name: str) -> None:
    work = run.ROOT / ".perfbench_work" / f"record-{name}"
    shutil.rmtree(work, ignore_errors=True)
    _, result = run.measure(name, workloads.DEFAULT_SEED, 0, 0, work)
    outputs = run.load_outputs(work / "main" / "pass-0", result["passes"][0])
    exits = outputs.pop("_exit")
    reference = {
        "seed": workloads.DEFAULT_SEED,
        "tolerance": {"rtol": workloads.RTOL, "atol": workloads.ATOL},
        "exit": exits,
        "ops": {op: {f: workloads.snapshot(text) for f, text in files.items()}
                for op, files in outputs.items()},
    }
    path = run.HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    outputs["_exit"] = exits
    checked = run.content_problems(workloads.WORKLOADS[name], workloads.DEFAULT_SEED,
                                   outputs, reference, work / "main")
    for op in result["passes"][0]["ops"]:
        checked.setdefault(op["name"], []).extend(op["problems"])
    problems = {op: found for op, found in checked.items() if found}
    print(f"{name}: wrote {path.relative_to(run.ROOT)}; problems: {problems or 'none'}")
    shutil.rmtree(work)


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
