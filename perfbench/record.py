"""Record the default-seed outcomes that ``run.py`` checks against.

    python3 perfbench/record.py

Generates the default-seed inputs of every workload, runs each batch
invocation once, requires the invariant checks to pass, and writes the
input digest and each invocation's ``[exit code, sha256 of report]`` to
``expected.json``.  Rerun it only when a change is meant to alter the
inputs or the reports, and say so in the change.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import sys

import gen
import run


def record(workload: str, seed: int = run.DEFAULT_SEED, sizes=None) -> dict:
    """Expected outcomes of one workload's batch for ``seed``."""
    workdir = run.WORK / f"record-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        manifest = gen.write_inputs(workload, seed, workdir, sizes)
        runner = run.Runner(workdir, None)
        runner.cli_main = importlib.import_module("hyperbasis.cli").main
        results = []
        os.chdir(workdir)
        for inv in manifest["batch"]:
            _, _, reason = runner.run(inv)
            if reason is not None:
                raise SystemExit(f"{workload}: refusing to record a failure: {reason}")
            results.append([runner.last_rc, hashlib.sha256(runner.out.read_bytes()).hexdigest()])
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    return {"seed": seed, "input_digest": manifest["input_digest"], "results": results}


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    expected = {w: record(w) for w in gen.WORKLOADS}
    lines = []
    for w in gen.WORKLOADS:
        rows = ",\n".join("    " + json.dumps(r) for r in expected[w]["results"])
        lines.append(f'  "{w}": {{"seed": {expected[w]["seed"]}, '
                     f'"input_digest": "{expected[w]["input_digest"]}", "results": [\n{rows}\n  ]}}')
    (run.HERE / "expected.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
