#!/usr/bin/env python3
"""threshmax benchmark: cold-start query workloads with checked answers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload limit --seed 1 --seconds 36 --trace 0

Each round starts a fresh interpreter (worker.py) that imports the library
from ``src/`` and answers the workload's whole seeded query list, one query
after another (one client, closed loop, one thread).  Rounds repeat, at
least MIN_ROUNDS of them, while the next one still fits in ``--seconds``.
The worker times a fixed pure-Python reference loop just before each
query, every 40 ms while it runs and just after it.  ``wall_norm`` sums
each query's median over the rounds of its latency divided by that mean
reference time, which cancels the drift of the host's speed.
Answers are checked by checks.py after the rounds, outside the timed window.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a traced
round between two plain ones, requires identical answers, and reports the
per-layer metrics of tracer.py plus the tracing overhead against the mean of
the plain rounds, both in reference-loop units.  Traced runs time the
reference only between queries, in all three rounds.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = ".perfbench"

# one thread per worker: the load is a single client
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# interpreter starts that only import the library, for setup_s, before
# each round, so the samples spread over the run like the rounds do
SETUP_SAMPLES_PER_ROUND = 3
# each query's latency is its least over at least this many rounds
MIN_ROUNDS = 3
# a run must finish within this many seconds; oracles need the remainder
RUN_LIMIT_S = 170
ORACLE_RESERVE_S = 20
# the tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10

class WorkerError(RuntimeError):
    """A worker process timed out, crashed or replied with garbage."""


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.update(THREAD_PINS)
    return env


def run_worker(root: str, request: dict, timeout: float) -> dict:
    """Answer one request in a fresh interpreter; adds setup_s and process_s."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=root,
        env=worker_env(root),
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
    except BaseException:  # interrupted or terminated: leave no worker behind
        proc.kill()
        proc.communicate()
        raise
    ended = time.monotonic()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: {err.strip()[-500:]}")
    try:
        reply = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"worker reply is not JSON: {out[-200:]!r}") from None
    reply["setup_s"] = reply["ready"] - spawned
    reply["process_s"] = ended - spawned
    return reply


def normalized(reply: dict) -> list[float]:
    """Each query's latency in units of the reference loop's mean time
    around and during the query."""
    return [lat / ref for lat, ref in zip(reply["latencies"], reply["references"])]


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None below 2 * TAIL_BEYOND samples."""
    if len(values) < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    return 100 * rank / len(ordered), ordered[rank - 1]


def git_revision(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root: str) -> str:
    """Hash of the library sources, which identifies the code when git cannot."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "threshmax")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def score(queries: list[dict], rounds: list[dict], notes: list[str]) -> int:
    """Failed answers over all rounds: raised, failed its oracle, or differs
    from the first round's answer to the same query."""
    failed = 0
    first = rounds[0]["answers"]
    for i, q in enumerate(queries):
        label = f"query {i} ({q['kind']} {q.get('h', '')} n={q.get('n', '-')})"
        problems = [] if first[i] is None else checks.check(q, first[i])
        for r, reply in enumerate(rounds):
            if reply["errors"][i] is not None:
                bad = [reply["errors"][i]]
            elif reply["answers"][i] != first[i]:
                bad = [f"answer differs from round 0 in round {r}"]
            else:
                bad = problems
            if bad:
                failed += 1
                notes.append(f"{label}, round {r}: {bad[0]}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_worker stops its worker first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "threshmax", "__init__.py")):
        print("run from a threshmax source checkout: src/threshmax is missing", file=sys.stderr)
        return 2

    queries = workloads.generate(args.workload, args.seed)
    env = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git_revision(root),
        "src_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "queries": len(queries),
        "inputs_sha256": workloads.digest(queries),
        "trace": args.trace,
    }
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    request = {"queries": queries, "sample": not args.trace}

    def budget() -> float:
        return RUN_LIMIT_S - ORACLE_RESERVE_S - (time.monotonic() - started)

    rounds, notes, setups = [], [], []
    lost_rounds = 0
    try:
        if args.trace:
            rounds.append(run_worker(root, request, budget()))
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.tsv")
            rounds.append(run_worker(root, dict(request, trace=1, spans_path=spans), budget()))
            rounds.append(run_worker(root, request, budget()))
        else:
            measured = 0.0
            while True:
                for _ in range(SETUP_SAMPLES_PER_ROUND):
                    setups.append(run_worker(root, {"queries": []}, budget())["setup_s"])
                rounds.append(run_worker(root, request, budget()))
                measured += rounds[-1]["process_s"]
                longest = max(r["process_s"] for r in rounds)
                enough = len(rounds) >= MIN_ROUNDS and measured + longest > args.seconds
                if enough or longest > budget():
                    break
    except WorkerError as exc:
        notes.append(f"round {len(rounds)}: {exc}")
        lost_rounds = 1

    attempted = len(queries) * (len(rounds) + lost_rounds)
    failed = len(queries) * lost_rounds
    if rounds:
        failed += score(queries, rounds, notes)
    for note in notes[:20]:
        print(f"# FAIL {note}")
    if len(notes) > 20:
        print(f"# ... {len(notes) - 20} more failures")

    metrics = {}
    if args.trace and len(rounds) == 3:
        before, traced, after = (sum(normalized(r)) for r in rounds)
        metrics = rounds[1]["layers"]
        metrics["trace_overhead"] = {"value": traced / ((before + after) / 2) - 1, "unit": "ratio"}
    elif rounds and not args.trace:
        setups += [r["setup_s"] for r in rounds]
        latencies = [lat for r in rounds for lat in r["latencies"]]
        # Every round replays the list cold, so a query meets the same cache
        # state in each round and its costs over the rounds are comparable.
        costs = [statistics.median(c) for c in zip(*(normalized(r) for r in rounds))]
        best = [min(lat) for lat in zip(*(r["latencies"] for r in rounds))]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_norm": {"value": sum(costs), "unit": "ref"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
        refs = [ref for r in rounds for ref in r["references"]]
        print(f"# rounds {len(rounds)}, queries per round {len(queries)}, setup samples {len(setups)}")
        print(f"# reference loop {statistics.median(refs):.6f} s (median over {len(refs)} queries)")
        print(f"# wall_s {sum(best):.6f} s (sum of each query's least latency over the rounds)")
        print(f"# query_p50_s {statistics.median(latencies):.6f} s (of {len(latencies)} queries)")
        tail_point = tail(latencies)
        if tail_point is not None:
            pct, value = tail_point
            print(f"# query_tail_s {value:.6f} s (p{pct:.1f} of {len(latencies)} queries)")
        else:
            print(f"# query_tail_s undefined: {len(latencies)} queries, fewer than {2 * TAIL_BEYOND}")
    print(f"# error_rate {failed / attempted if attempted else 1.0:.6f} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not lost_rounds,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
