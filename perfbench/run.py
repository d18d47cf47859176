"""Benchmark of the hyperbasis command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, a closed loop: the inputs of the workload are
generated from the seed (in a child process, so that their memory does
not count in ``peak_rss_mb``), then rounds run until another round would
overrun ``--seconds``.  A round imports hyperbasis afresh and runs the
warm-up invocations (the set-up, timed twice per round), then makes one
pass over the fixed batch of at least 101 in-process
``hyperbasis.cli.main([...])`` invocations, each waiting for the
previous one.  Reports go to a file through ``--out`` and stderr is
captured; every invocation's exit code and report are checked.

``--trace 0`` reports the end-to-end metrics: the median set-up time,
and from each invocation's best time over the passes the batch sum and
the p50 and p90 over the batch.  ``--trace 1`` adds to every round a
pass traced by ``tracing.Tracer`` and reports the per-layer metrics
(median over traced passes) and the tracing overhead.

A human-readable summary goes to stderr; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from gen import WORKLOADS
from tracing import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
MIN_PASSES = 3
SETUPS_PER_ROUND = 2
MAX_MEASURE_S = 100.0
GEN_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 1]."""
    pos = p * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def beyond_p90(n: int) -> int:
    """Samples strictly above the p90 interpolation position."""
    return n - 1 - int(0.9 * (n - 1))


# -- correctness ----------------------------------------------------------


def check_invocation(inv: dict, rc, report: bytes, expect) -> str | None:
    """None if the invocation's outcome is correct, else the reason.

    With an expectation ``[exit code, sha256 of the report]`` (default
    seed) the outcome must match it exactly; otherwise the invariants of
    the invocation kind must hold.
    """
    if rc is None:
        return "raised an exception"
    if expect is not None:
        digest = hashlib.sha256(report).hexdigest()
        if [rc, digest] != list(expect):
            return f"exit {rc} / report {digest[:12]} != expected {expect[0]} / {expect[1][:12]}"
        return None
    kind = inv["kind"]
    try:
        payload = json.loads(report)
        if kind == "pipeline":
            ok = rc == 0 and payload["verification"]["theorem_chain_ok"] is True
        elif kind == "prune":
            ok = rc == 0 and payload["verification"]["partial_basis"] is True
        else:
            ok = (
                rc in (0, 1)
                and payload["partial_basis"] is (rc == 0)
                and payload["parity_nonseparating"] is (payload["cover_components"] == 1)
            )
    except (ValueError, KeyError, TypeError) as e:
        return f"{kind} exit {rc} with an unreadable report ({e!r})"
    return None if ok else f"{kind} invariant broken (exit {rc})"


class Runner:
    """Runs and checks invocations in one input directory.

    Invocations name their files relative to it, because a synthetic
    model's file name appears in the pipeline report; the caller makes
    it the working directory.
    """

    def __init__(self, workdir: Path, expected: list | None):
        self.workdir = workdir
        self.out = workdir / "out.json"
        self.expected = expected
        self.cli_main = None
        self.last_rc = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, inv: dict, expect=None) -> tuple[float, int, str | None]:
        """(wall seconds, report bytes, failure reason) of one invocation."""
        argv = inv["argv"] + ["--out", self.out.name]
        self.out.unlink(missing_ok=True)
        err = io.StringIO()
        rc = None
        with contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli_main(argv)
            except Exception:  # a traceback is a failed invocation, not a crash
                traceback.print_exc(file=err)
            dt = perf_counter() - t0
        self.last_rc = rc
        report = self.out.read_bytes() if self.out.exists() else b""
        reason = check_invocation(inv, rc, report, expect)
        if reason is not None:
            reason += f": {' '.join(inv['argv'])} :: {err.getvalue().strip()[-300:]}"
        return dt, len(report), reason

    def run_pass(self, batch: list[dict], tracer=None) -> tuple[list[float], int]:
        """One pass over the batch: (per-invocation seconds, report bytes).
        With a tracer, spans are tagged with the batch index."""
        times = []
        nbytes = 0
        for idx, inv in enumerate(batch):
            if tracer is not None:
                tracer.op = idx
            expect = self.expected[idx] if self.expected is not None else None
            dt, size, reason = self.run(inv, expect)
            self.attempted += 1
            if reason is not None:
                self.failures.append(reason)
            times.append(dt)
            nbytes += size
        return times, nbytes


# -- set-up -----------------------------------------------------------------


def set_up(runner: Runner, warmup: list[dict]) -> tuple[float, list[str]]:
    """Import hyperbasis afresh and run the warm-up invocations; returns
    the time taken and the failed warm-ups."""
    for name in [m for m in sys.modules if m == "hyperbasis" or m.startswith("hyperbasis.")]:
        del sys.modules[name]
    failures = []
    t0 = perf_counter()
    runner.cli_main = importlib.import_module("hyperbasis.cli").main
    for inv in warmup:
        _, _, reason = runner.run(inv)
        if reason is not None:
            failures.append("warm-up " + reason)
    return perf_counter() - t0, failures


# -- measurement ------------------------------------------------------------


def best_times(batch: list[dict], passes: list[dict]) -> list[float]:
    """Each invocation's time: the best time of its input (its argv) over
    every execution in the run, copies within the batch included.

    The host is shared: for seconds to minutes at a time other tenants
    slow every instruction by up to 1.8x, which only ever adds time.  The
    best time over executions spread across the run measures the program
    rather than the neighbours.
    """
    best: dict[tuple, float] = {}
    for p in passes:
        for inv, t in zip(batch, p["times"]):
            key = tuple(inv["argv"])
            best[key] = min(t, best.get(key, t))
    return [best[tuple(inv["argv"])] for inv in batch]


def measure(runner: Runner, manifest: dict, seconds: float, trace: bool) -> dict:
    """Run rounds of set-up and pass until another round would overrun
    ``seconds`` (at least MIN_PASSES rounds).  Each round sets up afresh
    SETUPS_PER_ROUND times, so set-up times spread over the run like the
    passes; in a trace run each round adds a pass under the tracer."""
    batch = manifest["batch"]
    tracer = Tracer() if trace else None
    passes, traced, setups, warm_failures = [], [], [], []
    t_start = perf_counter()
    while True:
        elapsed = perf_counter() - t_start
        rounds = len(passes)
        if rounds >= MIN_PASSES and (elapsed * (rounds + 1) / rounds > seconds
                                     or elapsed > MAX_MEASURE_S):
            break
        for _ in range(SETUPS_PER_ROUND):
            setup, failures = set_up(runner, manifest["warmup"])
            setups.append(setup)
            warm_failures += failures
        times, _ = runner.run_pass(batch)
        passes.append({"times": times})
        if trace:
            tracer.reset()
            tracer.install()
            try:
                times, nbytes = runner.run_pass(batch, tracer)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(sum(times), nbytes)
            traced.append({
                "times": times,
                "layers": layers,
                "self_sum": tracer.self_time_total() + layers["cli.other_s"],
                "op_sum": sum(times),
                "slope_bases": {key: (min(n for n, _ in pts), max(n for n, _ in pts), len(pts))
                                for key, pts in tracer.samples.items()},
            })
    return {
        "passes": passes,
        "traced": traced,
        "setups": setups,
        "warm_failures": warm_failures,
        "missing": tracer.missing if trace else [],
        "hook_errors": sorted(tracer.hook_errors) if trace else [],
    }


# -- metrics and report -----------------------------------------------------


def end_to_end(batch: list[dict], raw: dict) -> dict[str, float]:
    best = best_times(batch, raw["passes"])
    ops = sorted(best)
    return {
        "setup_s": statistics.median(raw["setups"]),
        "batch_s": sum(best),
        "op_p50_ms": percentile(ops, 0.5) * 1e3,
        "op_p90_ms": percentile(ops, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(batch: list[dict], raw: dict) -> dict[str, float]:
    """Medians over the traced passes; the overhead compares the summed
    best times of traced and untraced invocations."""
    traced = raw["traced"]
    out = {name: statistics.median(t["layers"][name] for t in traced)
           for name in LAYER_METRICS if name in traced[0]["layers"]}
    untraced = sum(best_times(batch, raw["passes"]))
    out["trace.overhead_frac"] = sum(best_times(batch, traced)) / untraced - 1.0
    out["trace.untraced_batch_s"] = untraced
    return out


def run_workload(manifest: dict, workdir: Path, seconds: float, trace: bool,
                 expected: dict | None) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns the result object
    and the lines of the human-readable summary."""
    digest_ok = True
    results = None
    if expected is not None:
        digest_ok = expected["input_digest"] == manifest["input_digest"]
        results = expected["results"] if digest_ok else None
    runner = Runner(workdir, results)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        raw = measure(runner, manifest, seconds, trace)
    finally:
        os.chdir(cwd)
    warm_failures = raw["warm_failures"]
    failed = runner.attempted if not digest_ok else len(runner.failures)
    if trace:
        units = LAYER_METRICS
        metrics = per_layer(manifest["batch"], raw)
    else:
        units = E2E_UNITS
        metrics = end_to_end(manifest["batch"], raw)
    result = {
        "correct": failed == 0 and not warm_failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    n_ops = len(manifest["batch"])
    n_inputs = len({tuple(inv["argv"]) for inv in manifest["batch"]})
    lines = [
        f"workload {manifest['workload']}  seed {manifest['seed']}  trace {int(trace)}",
        f"batch of {n_ops} invocations of {n_inputs} inputs ({beyond_p90(n_ops)} beyond p90), "
        f"{len(raw['passes'])} untraced passes, {len(raw['setups'])} set-ups"
        + (f", {len(raw['traced'])} traced passes" if trace else ""),
        f"checked against {'recorded expectations' if expected else 'invariants'}"
        + ("" if digest_ok else "  INPUT DIGEST DIFFERS FROM THE RECORDED ONE"),
    ]
    lines += [f"  {k:34s} {v:14.6f} {units[k]}" for k, v in metrics.items()]
    lines.append(f"  {'fail_frac':34s} {failed / max(1, runner.attempted):14.6f} ratio "
                 f"({failed} of {runner.attempted})")
    if trace:
        gap = max(abs(t["self_sum"] / t["op_sum"] - 1.0) for t in raw["traced"])
        lines.append(
            f"layer self times + cli.other_s match traced invocation time within {gap:.1e}; "
            f"traced invocations take {metrics['trace.overhead_frac']:+.4f} more than "
            f"untraced batch_s {metrics['trace.untraced_batch_s']:.4f} s"
        )
        for key, (lo, hi, n) in raw["traced"][0]["slope_bases"].items():
            lines.append(f"{key} slope fitted over {n} calls, sizes {lo}..{hi} cone points")
        if raw["missing"]:
            lines.append("MISSING wrapped names: " + ", ".join(raw["missing"]))
        for err in raw["hook_errors"]:
            lines.append("size counter unavailable: " + err)
    for reason in (warm_failures + runner.failures)[:10]:
        lines.append("FAILED " + reason)
    return result, lines


def load_expected(workload: str, seed: int) -> dict | None:
    """Recorded outcomes for the default seed, None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "expected.json").read_text())[workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperbasis" / "__init__.py").is_file():
        print(f"perfbench: no hyperbasis package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), args.workload, str(args.seed), str(workdir)],
            check=True, timeout=GEN_TIMEOUT_S,
        )
        manifest = json.loads((workdir / "manifest.json").read_text())
        result, lines = run_workload(manifest, workdir, args.seconds, bool(args.trace),
                                     load_expected(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print("\n".join(lines), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
