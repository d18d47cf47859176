"""Self-test of the benchmark at tiny sizes, from the repository root:

    python3 perfbench/selftest.py

Checks that every workload runs traced and untraced, that every metric
declared in BENCHMARK.json is reported with its declared unit, that the
block maps written as JSON equal the package's own block family, that the
checker fails closed (a wrong recorded report digest or input digest
counts as a failure), that the tracer wraps names imported into other
modules and restores them, and that a wrapped name which has gone is
reported as missing instead of crashing the traced run.  Exits 1 on
the first broken check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import gen
import record
import run
import tracing

TINY = {"regular-ladder": (3, 4), "block-prune": (3, 5), "nested-mix": (8, 10)}
SEED = 7


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def run_tiny(workload: str, trace: bool, expected=None) -> dict:
    workdir = run.WORK / f"selftest-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        manifest = gen.write_inputs(workload, SEED, workdir, TINY[workload])
        result, _ = run.run_workload(manifest, workdir, 0.0, trace, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    return result


def check_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"{workload}: metrics {got} != declared {want}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in gen.WORKLOADS:
        plain = run_tiny(workload, trace=False)
        if not plain["correct"] or plain["failed"]:
            fail(f"{workload}: untraced run not correct: {plain}")
        check_metrics(workload, plain, bench["end_to_end"])
        traced = run_tiny(workload, trace=True)
        if not traced["correct"] or traced["failed"]:
            fail(f"{workload}: traced run not correct")
        check_metrics(workload, traced, bench["per_layer"])
        print(f"selftest: {workload} ran untraced and traced, all metrics present")

    from hyperbasis import families, spheremap

    for n in (2, 3, 8):
        written = spheremap.from_json(json.dumps(gen.block_map(n))).to_dict()
        if written != families.block_family(n).to_dict():
            fail(f"block_map({n}) differs from families.block_family({n})")
    print("selftest: block maps written as JSON equal the package's block family")

    workload = "nested-mix"
    expected = record.record(workload, SEED, TINY[workload])
    good = run_tiny(workload, False, expected)
    if not good["correct"] or good["failed"]:
        fail("recorded expectations do not match their own run")
    wrong = json.loads(json.dumps(expected))
    wrong["results"][0][1] = "0" * 64
    bad = run_tiny(workload, False, wrong)
    if bad["correct"] or bad["failed"] < 1:
        fail("a wrong expected report digest was not counted as a failure")
    wrong = json.loads(json.dumps(expected))
    wrong["input_digest"] = "0" * 64
    bad = run_tiny(workload, False, wrong)
    if bad["correct"] or bad["failed"] != bad["attempted"]:
        fail("a wrong input digest did not fail every invocation")
    print("selftest: wrong recorded digests are counted as failures")

    prune_mod, cover_mod = sys.modules["hyperbasis.prune"], sys.modules["hyperbasis.cover"]
    saved = tracing.TARGETS
    tracing.TARGETS = saved + (("growth", "no_such_function", "growth.simulate"),)
    try:
        tracer = tracing.Tracer()
        tracer.install()
        aliases_wrapped = all(
            hasattr(f, "__wrapped__")
            for f in (prune_mod.region_tree, prune_mod.classify_arcs, cover_mod.build_cover)
        )
        tracer.uninstall()
    finally:
        tracing.TARGETS = saved
    if not aliases_wrapped:
        fail("names imported into prune or used inside cover were not wrapped")
    if hasattr(prune_mod.region_tree, "__wrapped__"):
        fail("uninstall left a wrapper in place")
    if tracer.missing != ["growth.no_such_function"]:
        fail(f"missing names reported as {tracer.missing}")
    print("selftest: aliases are wrapped, and a vanished name is reported as missing")
    print("selftest passed")


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    os.chdir(run.ROOT)
    main()
