"""Command-line front end.

One subcommand per operation plus the verification suites.  Exit codes:
0 on success, 1 when a verification-style check comes back false, 2 on
usage or input errors.  Human text by default; ``--json`` (and ``--csv``
for the bound report) switch to machine formats.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from threshmax.graphs import (
    ParseError,
    parse_graph,
    parse_hypergraph,
    serialize_graph,
    serialize_hypergraph,
)
from threshmax.homcount import (
    BudgetError,
    hom_count,
    hom_count_hyper,
    hom_count_naive,
    hom_density,
    injective_hom_count,
)
from threshmax.moves import hyper_thresholdize, thresholdize
from threshmax.optimize import (
    TwoStarInstance,
    alpha_star,
    domination_exponent,
    janson_bound,
    janson_ratio_report,
    limit_search,
    search_all_max,
    search_threshold_max,
    two_star_f,
    two_star_feasible_interval,
    two_star_fprime,
    two_star_fsecond,
    two_star_no_interior_max,
    two_star_objective,
)
from threshmax.threshold import is_threshold
from threshmax.moves import is_threshold_hyper
from threshmax.verify import SUITES, run_all, run_suite

__all__ = ["main"]


def _load(path: str, parse):
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _emit(args, record: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _frac(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return str(value)


# ── subcommand handlers ──────────────────────────────────────────────────


def _cmd_count(args) -> int:
    h = _load(args.pattern, parse_graph)
    g = _load(args.target, parse_graph)
    if args.injective:
        value = injective_hom_count(h, g)
    elif args.naive:
        value = hom_count_naive(h, g)
    else:
        value = hom_count(h, g)
    _emit(args, {"hom": value}, str(value))
    return 0


def _cmd_density(args) -> int:
    h = _load(args.pattern, parse_graph)
    g = _load(args.target, parse_graph)
    value = hom_density(h, g)
    _emit(args, {"density": _frac(value), "float": float(value)}, _frac(value))
    return 0


def _cmd_is_threshold(args) -> int:
    g = _load(args.target, parse_graph)
    answer = is_threshold(g)
    _emit(args, {"threshold": answer}, "true" if answer else "false")
    return 0 if answer else 1


def _cmd_thresholdize(args) -> int:
    g = _load(args.target, parse_graph)
    out, log = thresholdize(g)
    if args.log:
        try:
            with open(args.log, "w") as fh:
                fh.write(log.to_text())
        except OSError as exc:
            raise ValueError(f"cannot write {args.log!r}: {exc}") from exc
    record = {
        "n": out.n,
        "m": out.m,
        "moves": log.move_count,
        "movement": log.total_movement,
        "graph": serialize_graph(out),
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        sys.stdout.write(serialize_graph(out))
        print(f"moves {log.move_count} movement {log.total_movement}", file=sys.stderr)
    return 0


def _cmd_search_threshold(args) -> int:
    h = _load(args.pattern, parse_graph)
    res = search_threshold_max(h, args.n, args.m)
    record = {
        "n": args.n,
        "m": args.m,
        "best": res.best_value,
        "witness": str(res.witness),
        "explored": res.explored,
    }
    _emit(args, record, f"best {res.best_value}\nwitness {res.witness}")
    return 0


def _cmd_search_all(args) -> int:
    h = _load(args.pattern, parse_graph)
    res = search_all_max(h, args.n, args.m)
    record = {
        "n": args.n,
        "m": args.m,
        "best": res.best_value,
        "witness": serialize_graph(res.witness),
        "explored": res.explored,
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"best {res.best_value}")
        sys.stdout.write(serialize_graph(res.witness))
    return 0


def _cmd_limit_search(args) -> int:
    h = _load(args.pattern, parse_graph)
    res = limit_search(h, args.c, max_parts=args.parts, grid=args.grid, refine_tol=args.refine_tol)
    witness = ",".join(f"{b}:{float(p):.12g}" for b, p in res.witness.blocks)
    record = {
        "c": args.c,
        "best": res.best_value,
        "witness": witness,
        "explored": res.explored,
    }
    _emit(args, record, f"best {res.best_value:.12g}\nwitness {witness}")
    return 0


def _cmd_alpha_star(args) -> int:
    h = _load(args.pattern, parse_graph)
    res = alpha_star(h)
    weights = ",".join(_frac(w) for w in res.weights)
    record = {"alpha_star": _frac(res.alpha_star), "weights": weights}
    _emit(args, record, f"alpha* {_frac(res.alpha_star)}\nweights {weights}")
    return 0


def _cmd_domexp(args) -> int:
    h = _load(args.pattern, parse_graph)
    value = domination_exponent(h)
    _emit(args, {"exponent": _frac(value)}, _frac(value))
    return 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "-" in piece and not piece.startswith("-"):
            lo, _, hi = piece.partition("-")
            try:
                out.extend(range(int(lo), int(hi) + 1))
            except ValueError as exc:
                raise ValueError(f"bad {flag} entry {piece!r}") from exc
        else:
            try:
                out.append(int(piece))
            except ValueError as exc:
                raise ValueError(f"bad {flag} entry {piece!r}") from exc
    if not out:
        raise ValueError(f"{flag} is empty")
    return out


def _cmd_janson(args) -> int:
    h = _load(args.pattern, parse_graph)
    n_grid = _parse_int_list(args.n_grid, "--n-grid")
    m_grid = _parse_int_list(args.m_grid, "--m-grid") if args.m_grid else None
    report = janson_ratio_report(h, n_grid, m_grid)
    if args.json:
        record = {
            "min_ratio": report.min_ratio,
            "max_ratio": report.max_ratio,
            "rows": [
                {
                    "n": r.n,
                    "m": r.m,
                    "best_hom": r.best_hom,
                    "three_part_hom": r.three_part_hom,
                    "bound": r.bound,
                }
                for r in report.rows
            ],
        }
        print(json.dumps(record, sort_keys=True))
    elif args.csv:
        print("n,m,best_hom,three_part_hom,bound,ratio")
        for r in report.rows:
            print(f"{r.n},{r.m},{r.best_hom},{r.three_part_hom},{r.bound:.6g},{r.best_hom / r.bound:.6g}")
    else:
        print(f"{'n':>4} {'m':>5} {'best':>12} {'3part':>12} {'bound':>12} {'ratio':>8}")
        for r in report.rows:
            print(
                f"{r.n:>4} {r.m:>5} {r.best_hom:>12} {r.three_part_hom:>12} "
                f"{r.bound:>12.6g} {r.best_hom / r.bound:>8.4f}"
            )
        print(f"ratio window [{report.min_ratio:.4f}, {report.max_ratio:.4f}]")
    return 0


def _cmd_two_star(args) -> int:
    if args.beta is not None:
        inst = TwoStarInstance(args.c, args.d, args.k, args.beta, args.mode)
        record = {
            "f": two_star_f(inst),
            "objective": two_star_objective(inst),
            "fprime": two_star_fprime(inst),
            "fsecond": two_star_fsecond(inst),
        }
        text = (
            f"f {record['f']:.12g}\nobjective {record['objective']:.12g}\n"
            f"fprime {record['fprime']:.12g}\nfsecond {record['fsecond']:.12g}"
        )
        _emit(args, record, text)
        return 0
    interval = two_star_feasible_interval(args.c, args.d, args.mode)
    clean = two_star_no_interior_max(args.c, args.d, args.k, args.mode)
    record = {
        "feasible": interval is not None,
        "interval": list(interval) if interval else None,
        "no_interior_max": clean,
    }
    if interval is None:
        text = "infeasible\nno_interior_max true"
    else:
        text = (
            f"interval [{interval[0]:.12g}, {interval[1]:.12g}]\n"
            f"no_interior_max {'true' if clean else 'false'}"
        )
    _emit(args, record, text)
    return 0 if clean else 1


def _cmd_hyper_count(args) -> int:
    h = _load(args.pattern, parse_hypergraph)
    g = _load(args.target, parse_hypergraph)
    value = hom_count_hyper(h, g)
    _emit(args, {"hom": value}, str(value))
    return 0


def _cmd_hyper_is_threshold(args) -> int:
    g = _load(args.target, parse_hypergraph)
    answer = is_threshold_hyper(g)
    _emit(args, {"threshold": answer}, "true" if answer else "false")
    return 0 if answer else 1


def _cmd_hyper_thresholdize(args) -> int:
    g = _load(args.target, parse_hypergraph)
    pattern = _load(args.pattern, parse_hypergraph) if args.pattern else None
    out, report = hyper_thresholdize(g, pattern)
    record = {
        "n": out.n,
        "m": out.m,
        "moves": report.moves_used,
        "removed": report.edges_removed,
        "loss_bound": report.homomorphism_loss_bound,
        "hypergraph": serialize_hypergraph(out),
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        sys.stdout.write(serialize_hypergraph(out))
        line = f"moves {report.moves_used} removed {report.edges_removed}"
        if report.homomorphism_loss_bound is not None:
            line += f" loss_bound {report.homomorphism_loss_bound}"
        print(line, file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        results = run_all(args.seed)
    else:
        results = [run_suite(args.suite, args.seed)]
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:16} {status}  {r.seconds:7.1f}s  {r.details}")
        if not r.passed:
            failed += 1
    if failed:
        print(f"{failed} suite(s) failed", file=sys.stderr)
        return 1
    return 0


# ── parser ───────────────────────────────────────────────────────────────


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshmax",
        description="Homomorphism maximization over threshold graphs and their limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("count", _cmd_count, help="homomorphism count from a pattern into a target")
    p.add_argument("pattern")
    p.add_argument("target")
    p.add_argument("--naive", action="store_true", help="use the reference counter")
    p.add_argument("--injective", action="store_true", help="count injective maps")

    p = add("density", _cmd_density, help="homomorphism density as an exact rational")
    p.add_argument("pattern")
    p.add_argument("target")

    p = add("is-threshold", _cmd_is_threshold, help="test the nested-neighborhood property")
    p.add_argument("target")

    p = add("thresholdize", _cmd_thresholdize, help="transform a graph into a threshold graph")
    p.add_argument("target")
    p.add_argument("--log", help="write the move log to this path")

    p = add("search-threshold", _cmd_search_threshold, help="max hom over threshold graphs under budgets")
    p.add_argument("pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("search-all", _cmd_search_all, help="max hom over all graphs under budgets")
    p.add_argument("pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("limit-search", _cmd_limit_search, help="max limiting density under an edge-density budget")
    p.add_argument("pattern")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--parts", type=int, default=4)
    p.add_argument("--grid", type=float, default=0.02)
    p.add_argument("--refine-tol", type=float, default=1e-6)

    p = add("alpha-star", _cmd_alpha_star, help="fractional independence number and weights")
    p.add_argument("pattern")

    p = add("domexp", _cmd_domexp, help="homomorphism density domination exponent")
    p.add_argument("pattern")

    p = add("janson", _cmd_janson, help="ratio report against the order bound")
    p.add_argument("pattern")
    p.add_argument("--n-grid", required=True, help="comma list or a-b ranges, e.g. 8-12")
    p.add_argument("--m-grid", help="comma list or ranges; default sweeps 2n..C(n,2)")
    p.add_argument("--csv", action="store_true", help="CSV rows")

    p = add("two-star", _cmd_two_star, help="the 2-star block programs")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--mode", choices=["0lead", "1lead"], required=True)
    p.add_argument("--beta", type=float, help="evaluate at this point instead of scanning")

    p = add("hyper-count", _cmd_hyper_count, help="homomorphism count between hypergraphs")
    p.add_argument("pattern")
    p.add_argument("target")

    p = add("hyper-is-threshold", _cmd_hyper_is_threshold, help="test hypergraph thresholdness")
    p.add_argument("target")

    p = add("hyper-thresholdize", _cmd_hyper_thresholdize, help="reduce a hypergraph to a threshold one")
    p.add_argument("target")
    p.add_argument("--pattern", help="pattern hypergraph for the loss bound")

    p = add("verify", _cmd_verify, help="run acceptance suites")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
