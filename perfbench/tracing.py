"""Per-layer spans for the traced benchmark run.

The program is not instrumented: :class:`Tracer` wraps the public entry
point of each layer from outside (class attributes and module-level names
are replaced for the duration of the run and restored afterwards). Each
call records a span ``(id, parent id, layer, op, start, end, info)``; the
parent is the innermost span open *on the same thread*, so queries run on
the web-DB's thread pool start their own trees. Spans stay in memory and
:func:`layer_metrics` turns them into per-layer numbers after the run.

Nested calls are not double-counted: a layer's busy time sums only its
outermost spans (MD-TA's inner 1-D ``get_next`` is inside the outer one),
and self times subtract only the outermost spans of the other layers they
contain.
"""
from __future__ import annotations

import itertools
import statistics
import threading
import time

# (layer, op) of every wrapped entry point
SPARK_COLLECT = ("spark", "collect")
WEBDB_QUERY = ("webdb", "query")
WEBDB_BATCH = ("webdb", "query_batch")
WEBDB_EXECUTE = ("webdb", "execute")
CRAWL = ("crawler", "crawl")
DISCOVERY = ("discovery", "discover_bounds")
DENSE_LOOKUP = ("dense_index", "rows_matching")
DENSE_ADD = ("dense_index", "add")
BEST_UNDELIVERED = ("session", "best_undelivered")
ABSORB = ("session", "absorb")
TO_SQL = ("predicates", "to_sql")
CONTAINS_SPEC = ("predicates", "contains_spec")
GET_NEXT = ("algo", "get_next")
SUBMIT = ("service", "submit")
GET_NEXT_PAGE = ("service", "get_next_page")


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._overheads: list = []  # one [seconds] cell per thread
        self._patches: list = []

    def _thread_state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.overhead = [0.0]
            self._overheads.append(loc.overhead)
        return loc

    def wrap(self, owners, attr: str, kind: tuple, info=None) -> None:
        """Replace ``attr`` on every owner (class or module) with a traced
        version; all owners must share one original object. ``info(args,
        result)`` adds a small payload to the span."""
        orig = getattr(owners[0], attr)
        for o in owners[1:]:
            if getattr(o, attr) is not orig:
                raise RuntimeError(f"{o!r}.{attr} is not the same object as on {owners[0]!r}")
        tracer, (layer, op) = self, kind
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            loc = tracer._thread_state()
            sid = next(tracer._ids)
            parent = loc.stack[-1] if loc.stack else 0
            loc.stack.append(sid)
            result = None
            t1 = clock()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                t2 = clock()
                loc.stack.pop()
                payload = info(args, result) if info is not None else None
                tracer.spans.append((sid, parent, layer, op, t1, t2, payload))
                loc.overhead[0] += (t1 - t0) + (clock() - t2)

        traced.__wrapped__ = orig
        for o in owners:
            setattr(o, attr, traced)
            self._patches.append((o, attr, orig))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for o, attr, orig in reversed(self._patches):
            setattr(o, attr, orig)
        self._patches.clear()

    def clear(self) -> None:
        """Drop recorded spans and overhead (between phases of a run)."""
        self.spans = []
        for cell in self._overheads:
            cell[0] = 0.0

    @property
    def overhead_s(self) -> float:
        """Time spent inside the wrappers' own bookkeeping, all threads."""
        return sum(cell[0] for cell in self._overheads)


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every QR2 layer."""
    from pyspark.sql.classic.dataframe import DataFrame

    from repro.core import dense_index, multidim, onedim, service, session, ta
    from repro.webdb import crawler, discovery, interface, predicates

    def n_specs(args, result):
        return len(args[1])

    def crawled(args, result):
        return None if result is None else result.n_queries

    def hit(args, result):
        return result is not None

    def session_size(args, result):
        s = args[0]
        return (len(s.pool), len(s.query_cache))

    tracer.wrap([DataFrame], "collect", SPARK_COLLECT)
    tracer.wrap([interface.WebDB], "query", WEBDB_QUERY)
    tracer.wrap([interface.WebDB], "query_batch", WEBDB_BATCH, n_specs)
    # the per-query unit under both query() and the batch thread pool
    tracer.wrap([interface.SparkWebDB], "_execute", WEBDB_EXECUTE)
    # crawl / discover_bounds are imported by name into their callers
    tracer.wrap([crawler, onedim, multidim, dense_index], "crawl", CRAWL, crawled)
    tracer.wrap([discovery, service], "discover_bounds", DISCOVERY)
    tracer.wrap([dense_index.DenseIndex], "rows_matching", DENSE_LOOKUP, hit)
    tracer.wrap([dense_index.DenseIndex], "add", DENSE_ADD)
    tracer.wrap([session.Session], "best_undelivered", BEST_UNDELIVERED, session_size)
    tracer.wrap([session.Session], "absorb", ABSORB, session_size)
    tracer.wrap([predicates.QuerySpec], "to_sql", TO_SQL)
    tracer.wrap([predicates.QuerySpec], "contains_spec", CONTAINS_SPEC)
    for algo in (onedim.OneDAlgorithm, multidim.MDAlgorithm, ta.MDTA):
        tracer.wrap([algo], "get_next", GET_NEXT)
    tracer.wrap([service.QR2Service], "submit", SUBMIT)
    tracer.wrap([service.QR2Service], "get_next_page", GET_NEXT_PAGE)


# ----- span analysis ---------------------------------------------------------
class _Tree:
    """Spans indexed by id with their children (same-thread nesting)."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children: dict = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def outermost(self, kind_or_layer) -> list:
        """Spans of a layer (or exact kind) with no ancestor of that layer."""
        match = _matcher(kind_or_layer)
        out = []
        for s in self.by_id.values():
            if not match(s):
                continue
            p = self.by_id.get(s[1])
            while p is not None and p[2] != s[2]:
                p = self.by_id.get(p[1])
            if p is None:
                out.append(s)
        return out

    def nested_time(self, span, layers) -> float:
        """Seconds of ``span`` covered by the topmost descendants in
        ``layers`` (a descendant inside another counted one is skipped)."""
        total = 0.0
        for c in self.children.get(span[0], ()):
            if c[2] in layers:
                total += c[5] - c[4]
            else:
                total += self.nested_time(c, layers)
        return total

    def has_ancestor(self, span, kind) -> bool:
        p = self.by_id.get(span[1])
        while p is not None:
            if (p[2], p[3]) == kind:
                return True
            p = self.by_id.get(p[1])
        return False


def _matcher(kind_or_layer):
    if isinstance(kind_or_layer, tuple):
        return lambda s: (s[2], s[3]) == kind_or_layer
    return lambda s: s[2] == kind_or_layer


def _ms(spans) -> list:
    return [(s[5] - s[4]) * 1e3 for s in spans]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


ALL_LAYERS = {
    "spark", "webdb", "crawler", "discovery", "dense_index",
    "session", "predicates", "algo", "service",
}
#: what algo.self excludes: the layers get_next delegates to
ALGO_CHILD_LAYERS = {"webdb", "crawler", "dense_index", "session"}


def layer_metrics(spans, *, dense_indexes, window_s: float, overhead_s: float) -> dict:
    """Per-layer counts, busy times and ratios of one timed window."""
    t = _Tree(spans)
    of = lambda kind: [s for s in spans if (s[2], s[3]) == kind]  # noqa: E731

    collects = of(SPARK_COLLECT)
    queries, batches = of(WEBDB_QUERY), of(WEBDB_BATCH)
    executes = of(WEBDB_EXECUTE)
    full_batches = [b for b in batches if b[6]]
    n_batched = sum(b[6] for b in full_batches)
    n_queries = len(queries) + n_batched
    batch_wall = sum(_ms(full_batches))
    in_batches = [e for e in executes if not t.has_ancestor(e, WEBDB_QUERY)]
    crawls = t.outermost(CRAWL)
    crawl_queries = sum(c[6] or 0 for c in crawls)
    lookups = of(DENSE_LOOKUP)
    hits = sum(1 for s in lookups if s[6])
    bests = of(BEST_UNDELIVERED)
    sizes = [s[6] for s in bests + of(ABSORB) if s[6] is not None]
    to_sql = of(TO_SQL)
    algo = t.outermost("algo")
    service_spans = t.outermost("service")

    return {
        "spark.collect.count": (len(collects), "count"),
        "spark.collect_ms.sum": (sum(_ms(collects)), "ms"),
        "spark.collect_ms.p50": (_median(_ms(collects)), "ms"),
        "webdb.queries": (n_queries, "count"),
        "webdb.batches": (len(full_batches), "count"),
        "webdb.batch_size.mean": (_ratio(n_batched, len(full_batches)), "queries"),
        "webdb.parallel_frac": (
            _ratio(sum(b[6] for b in full_batches if b[6] > 1), n_queries), "ratio"),
        "webdb.query_ms.p50": (_median(_ms(executes)), "ms"),
        "webdb.driver_ms.sum": (
            sum((e[5] - e[4]) - t.nested_time(e, {"spark"}) for e in executes) * 1e3, "ms"),
        "webdb.batch_wall_ms.sum": (batch_wall, "ms"),
        "webdb.batch_overlap": (_ratio(sum(_ms(in_batches)), batch_wall), "ratio"),
        "webdb.empty_batch_calls": (len(batches) - len(full_batches), "count"),
        "crawler.calls": (len(crawls), "count"),
        "crawler.queries": (crawl_queries, "count"),
        "crawler.ms.sum": (sum(_ms(crawls)), "ms"),
        "crawler.query_share": (_ratio(crawl_queries, n_queries), "ratio"),
        "dense_index.lookups": (len(lookups), "count"),
        "dense_index.hits": (hits, "count"),
        "dense_index.hit_ratio": (_ratio(hits, len(lookups)), "ratio"),
        "dense_index.lookup_ms.sum": (sum(_ms(t.outermost(DENSE_LOOKUP))), "ms"),
        "dense_index.adds": (len(of(DENSE_ADD)), "count"),
        "dense_index.entries": (sum(len(i.entries) for i in dense_indexes), "count"),
        "dense_index.rows": (sum(i.n_rows for i in dense_indexes), "count"),
        "session.best_undelivered.calls": (len(bests), "count"),
        "session.best_undelivered_ms.sum": (sum(_ms(bests)), "ms"),
        "session.pool_rows.max": (max((p for p, _ in sizes), default=0), "count"),
        "session.query_cache_entries.max": (max((c for _, c in sizes), default=0), "count"),
        "predicates.to_sql.calls": (len(to_sql), "count"),
        "predicates.to_sql_ms.sum": (sum(_ms(t.outermost(TO_SQL))), "ms"),
        "predicates.contains_spec.calls": (len(of(CONTAINS_SPEC)), "count"),
        "algo.get_next.calls": (len(of(GET_NEXT)), "count"),
        "algo.self_ms.sum": (
            sum((a[5] - a[4]) - t.nested_time(a, ALGO_CHILD_LAYERS) for a in algo) * 1e3, "ms"),
        "service.self_ms.sum": (
            sum((s[5] - s[4]) - t.nested_time(s, ALL_LAYERS - {"service"})
                for s in service_spans) * 1e3, "ms"),
        "trace.overhead_frac": (_ratio(overhead_s, window_s), "ratio"),
    }


def discovery_metrics(spans, n_queries: int) -> dict:
    """Cost of interface discovery (register_source without bounds)."""
    runs = [s for s in spans if (s[2], s[3]) == DISCOVERY]
    return {
        "discovery.queries": (n_queries, "count"),
        "discovery.ms": (sum(_ms(runs)), "ms"),
    }
