"""Command-line pipeline: simulate, prune, verify, and tabulate bounds.

Exit codes: 0 everything verified, 1 a verification verdict failed,
2 invalid input (map ids and darts must be JSON integers, uncoerced),
3 the input violates a geometric assumption of the growth process, 4 an
internal error (a bug; its traceback goes to stderr).  All emitted JSON
is byte-identical across runs: keys sorted, floats at 9 significant
digits, timings reported on stderr only.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from . import bounds, cover, growth, hypmodel, jacobian, jsonio, prune
from . import spheremap as sphere
from .errors import (
    BoundViolation,
    ConstructionError,
    GeometricAssumptionViolated,
    HyperbasisError,
    InputError,
    VerificationFailure,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_GEOMETRY = 3
EXIT_INTERNAL = 4


def _load_model(name: str, genus: int | None):
    if name == "regular":
        if genus is None:
            raise InputError("--genus is required with the regular model")
        return hypmodel.regular_model(genus)
    model = hypmodel.load_synthetic(name)
    if genus is not None and genus != model.genus:
        raise InputError(
            f"--genus {genus} differs from the model file's genus {model.genus}"
        )
    return model


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _bounds_payload(genus: int, lam: float | None) -> dict:
    payload: dict = {
        "genus": genus,
        "kappa": bounds.kappa(genus),
        "rows": bounds.bound_table(genus),
    }
    if lam is not None:
        payload["lambda_rows"] = [jacobian.lambda_row(genus, lam)]
        payload["energy_rows"] = jacobian.basis_energy_table(genus, lam)
    return payload


def _bounds_csv(payload: dict) -> str:
    lines = ["k,j,radius_bound,alpha_bound,theorem_bound"]
    for r in payload["rows"]:
        lines.append(
            f"{r['k']},{r['j']},{r['radius_bound']:.7f},"
            f"{r['alpha_bound']:.7f},{r['theorem_bound']:.7f}"
        )
    for lr in payload.get("lambda_rows", []):
        lines.append("lambda,count,N,w,D")
        lines.append(
            f"{lr['lambda']:.7f},{lr['count']},{lr['N']:.7f},"
            f"{lr['w']:.7f},{lr['D']:.7f}"
        )
    return "\n".join(lines)


def cmd_bounds(args) -> int:
    if args.genus < 2:
        raise InputError("genus must be at least 2")
    payload = _bounds_payload(args.genus, args.lam)
    if args.format == "csv":
        _write(args.out, _bounds_csv(jsonio.round_floats(payload)))
    else:
        _write(args.out, jsonio.dumps_pretty(payload))
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args.model, args.genus)
    log = growth.simulate(model)
    growth.verify_radius_bounds(log)
    _write(args.out, jsonio.dumps_pretty(vars(log)))
    return EXIT_OK


def _read_map(path: str) -> sphere.SphereMap:
    """The map in a JSON file; bytes that are not UTF-8 are invalid input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"map file is not UTF-8: {e}") from e
    return sphere.from_json(text)


def cmd_prune(args) -> int:
    smap = _read_map(args.map)
    bounds.kappa(smap.genus)            # reject a genus outside the domain before pruning
    result = prune.prune(smap)
    report = prune.verify(result, smap)
    _write(args.out, jsonio.dumps_pretty(vars(result) | {"verification": report}))
    return EXIT_OK


def _parse_subset(text: str) -> frozenset[int]:
    """Arc ids of a comma-separated ``--subset`` list: ASCII decimal
    integers, optionally negative, as JSON writes them; no sign, space,
    underscore or other digit is read."""
    ids = []
    for entry in text.split(","):
        digits = entry.removeprefix("-")
        try:
            if not (digits.isascii() and digits.isdecimal()):
                raise ValueError
            ids.append(int(entry))      # raises past int's digit limit too
        except ValueError:
            raise InputError(f"--subset entries must be arc ids, got {entry!r}") from None
    return frozenset(ids)


def cmd_verify(args) -> int:
    smap = _read_map(args.map)
    subset = frozenset(smap.arcs) if args.subset is None else _parse_subset(args.subset)
    parity = sphere.is_nonseparating(smap, subset)
    components, rank = cover.verdict(smap, subset, parity)
    verdict = components == 1
    payload = {
        "arcs": sorted(subset),
        "parity_nonseparating": parity,
        "cover_components": components,
        "rank": rank,
        "partial_basis": verdict,
    }
    _write(args.out, jsonio.dumps_pretty(payload))
    print(
        "partial basis" if verdict else "separating",
        f"(components={components}, rank={rank})",
        file=sys.stderr,
    )
    return EXIT_OK if verdict else EXIT_VERIFICATION


def cmd_pipeline(args) -> int:
    t0 = time.perf_counter()
    model = _load_model(args.model, args.genus)
    g = model.genus
    payload: dict = {}
    if args.lam is not None:        # a ratio outside (0, 1) exits before growth runs
        payload["jacobian"] = _bounds_payload(g, args.lam)["energy_rows"]
    log = growth.simulate(model)
    radius_report = growth.verify_radius_bounds(log)
    graph = growth.arc_graph(log, model)
    kinds = [k.value for k in sphere.classify_components(graph)]
    t1 = time.perf_counter()

    result = prune.prune(graph)
    verification = prune.verify(result, graph)
    t2 = time.perf_counter()

    kap = bounds.kappa(g)
    chain = []
    chain_ok = True
    for k, m in enumerate(sorted(result.kept), start=1):
        if k > kap:
            break
        ev = log.events[m - 1]
        j_limit = 2 * g + 2 - kap + k
        alpha = bounds.alpha_length_bound(g, ev["j_before"])
        theorem = bounds.theorem_bound(g, k)
        ok = (
            ev["j_before"] <= j_limit
            and alpha <= theorem + 1e-9
            and 4.0 * ev["r"] <= theorem + 1e-9
        )
        chain_ok = chain_ok and ok
        chain.append(
            {
                "k": k,
                "event": m,
                "j": ev["j_before"],
                "j_limit": j_limit,
                "four_r": 4.0 * ev["r"],
                "alpha_bound": alpha,
                "theorem_bound": theorem,
                "ok": ok,
            }
        )

    payload |= {
        "genus": g,
        "model": model.name,
        "growth": {
            "M": log.M,
            "sum_k": log.consumed_total(),
            "j_final": log.j_final(),
            "events": log.events,
            "max_radius": max(ev["r"] for ev in log.events),
            "min_bound_slack": min(r["slack"] for r in radius_report),
        },
        "components": kinds,
        "prune": vars(result) | {"kappa": kap},
        "verification": dict(verification, theorem_chain_ok=chain_ok),
        "theorem_chain": chain,
    }
    _write(args.out, jsonio.dumps(payload))
    t3 = time.perf_counter()
    print(
        f"growth {t1 - t0:.3f}s  prune+verify {t2 - t1:.3f}s  "
        f"report {t3 - t2:.3f}s",
        file=sys.stderr,
    )
    all_ok = chain_ok and verification["partial_basis"]
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbasis",
        description=(
            "Short homologically independent loops on cone spheres: "
            "disk growth, pruning, double-cover verification, bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form bound table")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run the disk growth process")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--model", default="regular")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prune", help="prune an arc arrangement")
    p.add_argument("--map", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("verify", help="independence verdict for a subgraph")
    p.add_argument("--map", required=True)
    p.add_argument("--subset", default=None, help="comma-separated arc ids")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipeline", help="simulate, prune, verify, report")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--model", default="regular")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except GeometricAssumptionViolated as e:
        print(f"geometric assumption violated: {e}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (VerificationFailure, BoundViolation) as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (InputError, OSError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionError:
        traceback.print_exc()
        return EXIT_INTERNAL
    except HyperbasisError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # a bug: never report it as a verdict or bad input
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
