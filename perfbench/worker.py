"""One cold workload process: import the library, answer a query list, report.

Run by run.py as a fresh interpreter per round, so every module-level cache
starts empty, as it does for a ``threshmax`` CLI call.  The request arrives
as one JSON object on stdin; the reply is one JSON line on stdout.  The
reply's ``ready`` is the monotonic clock (shared by all processes on Linux)
when ``import threshmax, threshmax.cli`` returned.
"""

import time

import threshmax
import threshmax.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

# Library names are looked up on the package at call time, never bound here,
# so the tracer's patches on the package namespace see every call.
PATTERNS = {
    "K3": lambda: threshmax.complete_graph(3),
    "C4": lambda: threshmax.cycle_graph(4),
    "P4": lambda: threshmax.path_graph(4),
    "S2": lambda: threshmax.star_graph(2),
    "S3": lambda: threshmax.star_graph(3),
    "K3+K2": lambda: threshmax.disjoint_union(threshmax.complete_graph(3), threshmax.complete_graph(2)),
    "E1": lambda: threshmax.Hypergraph(3, 3, [(0, 1, 2)]),
    "E2": lambda: threshmax.Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)]),
}


def pattern(name: str):
    """Build a named pattern; checks.py defines the same names independently."""
    return PATTERNS[name]()


def _limit(q):
    res = threshmax.limit_search(
        pattern(q["h"]),
        q["c"],
        max_parts=workloads.LIMIT_MAX_PARTS,
        grid=workloads.LIMIT_GRID,
        refine_tol=workloads.LIMIT_REFINE_TOL,
    )
    return lambda: {
        "value": res.best_value,
        "blocks": [[b, float(p)] for b, p in res.witness.blocks],
        "explored": res.explored,
    }


def _sweep(q, search, witness_of):
    h, n = pattern(q["h"]), q["n"]
    results = [search(h, n, m) for m in range(n * (n - 1) // 2 + 1)]
    return lambda: [[r.best_value, witness_of(r.witness), r.explored] for r in results]


def _threshold(q):
    return _sweep(q, threshmax.search_threshold_max, str)


def _all(q):
    return _sweep(q, threshmax.search_all_max, lambda g: [list(e) for e in g.sorted_edges()])


def _graph(q):
    g = threshmax.Graph(q["n"], q["edges"])
    t, log = threshmax.thresholdize(g)
    homs = {}
    for name in workloads.REDUCE_GRAPH_PATTERNS:
        h = pattern(name)
        homs[name] = [threshmax.hom_count(h, g), threshmax.hom_count(h, t)]
    return lambda: {
        "n": t.n,
        "edges": [list(e) for e in t.sorted_edges()],
        "moves": log.move_count,
        "movement": log.total_movement,
        "homs": homs,
    }


def _hyper(q):
    g = threshmax.Hypergraph(q["n"], q["k"], q["edges"])
    homs = {name: threshmax.hom_count_hyper(pattern(name), g) for name in workloads.REDUCE_HYPER_PATTERNS}
    return lambda: {"homs": homs}


HANDLERS = {"limit": _limit, "threshold": _threshold, "all": _all, "graph": _graph, "hyper": _hyper}

# passes of the reference loop: about 1.3 ms on a 2 GHz Xeon
REFERENCE_PASSES = 5_000
# while a query runs, a timer signal times the reference loop this often
SAMPLE_PERIOD_S = 0.04


def reference() -> float:
    """Time of a fixed pure-Python loop, the yardstick of the host's speed.

    It is benchmark code, so a change to the library never moves it.
    """
    t0 = time.perf_counter()
    table, total = {}, 0
    for i in range(REFERENCE_PASSES):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += i * 3 % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference loop just before a query, every SAMPLE_PERIOD_S
    while it runs (from SIGALRM) and just after it.  The host's speed drifts
    within seconds, so samples taken only between queries miss much of it.
    """

    def __init__(self, period: float):
        self.period = period
        self.armed = False
        self.samples: list[float] = []
        self.spent = 0.0  # time the in-query samples took
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self.armed:
            t0 = time.perf_counter()
            self.samples.append(reference())
            self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.spent = [reference()], 0.0
        if self.period:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        # a handler runs between bytecodes of this thread, so none is
        # mid-way here and none counts once armed is False
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_s(self) -> float:
        """Mean reference time over the query, with the sample just after it."""
        self.samples.append(reference())
        return statistics.fmean(self.samples)


def main() -> None:
    request = json.load(sys.stdin)
    tracer = None
    if request.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # off in traced runs, whose spans would count the samples as library time
    sampler = SpeedSampler(SAMPLE_PERIOD_S if request.get("sample") else 0)
    latencies, references, finishers, errors = [], [], [], []
    for i, q in enumerate(request["queries"]):
        if tracer is not None:
            tracer.query = i
        finish, error = None, None
        sampler.start()
        t0 = time.perf_counter()
        try:
            finish = HANDLERS[q["kind"]](q)
        except Exception as exc:  # a failed query is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        sampler.stop()
        latencies.append(time.perf_counter() - t0 - sampler.spent)
        references.append(sampler.reference_s())
        finishers.append(finish)
        errors.append(error)
    # answers become plain JSON data outside the timed window
    reply = {
        "ready": READY,
        "latencies": latencies,
        "references": references,
        "answers": [None if f is None else f() for f in finishers],
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        reply["layers"] = tracer.metrics()
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
