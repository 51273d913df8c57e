"""QR2 page-latency benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. It starts Spark in local mode, builds the
Blue Nile and Zillow ``SparkWebDB`` sources (n = 3000, site k = 25), replays
the workload's seeded session stream through ``QR2Service`` with one
closed-loop client, checks every page against the exact ranking of the
full hidden table, and prints one metric per line followed by a JSON result
as the last line. ``--trace 1`` wraps each layer's entry points and reports
per-layer numbers instead of the end-to-end ones. Per-run details (latency
histograms, the per-page query-count fingerprint) go to
``perfbench/out/<workload>-seed<seed>.json``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
N_TUPLES = 3000
SITE_K = 25
PAGE_SIZE = 10
#: source builds per run; setup_s is their median
SETUP_REPEATS = 3
#: sequential queries and 8-query batches sent straight to the sources
#: before the timed window, past the steepest part of the JVM's warm-up
WARMUP_QUERIES, WARMUP_BATCHES = 8, 1
SPARK_CORES = min(4, os.cpu_count() or 1)
#: latency histogram bin edges, ms
HIST_EDGES_MS = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_spark_env(tmp: Path) -> None:
    """Keep Spark's and the JVM's scratch files inside the checkout."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    java_opts = shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory 1g "
        f"--driver-java-options {java_opts} "
        f"--conf spark.local.dir={shlex.quote(str(tmp))} --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false --conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("qr2-perfbench")
        # the same session settings as the repository's spark-submit jobs
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


def exact_bounds(pdfs) -> dict:
    """Attribute extents of each hidden table: what discovery must find."""
    from repro.webdb import sources

    attrs = {"bluenile": sources.BLUENILE_NUMERIC, "zillow": sources.ZILLOW_NUMERIC}
    return {
        name: {a: (float(pdf[a].min()), float(pdf[a].max())) for a in attrs[name]}
        for name, pdf in pdfs.items()
    }


def build_service(spark, bounds):
    """One set-up: both Spark sources built, cached and registered."""
    from repro.core.service import QR2Service
    from repro.webdb import sources

    svc = QR2Service()
    for make in (sources.bluenile, sources.zillow):
        db = make(spark, n=N_TUPLES, k=SITE_K)
        svc.register_source(db, bounds[db.name])
    return svc


def warm_up(dbs, bounds) -> None:
    """Fixed range queries on every source, outside any measured service."""
    from repro.webdb.predicates import QuerySpec, Range

    rng = random.Random("warm-up")

    def spec(db):
        attr = rng.choice(db.numeric_attrs)
        lo, hi = bounds[db.name][attr]
        return QuerySpec({attr: Range(lo + rng.random() * (hi - lo), None)})

    for i in range(WARMUP_QUERIES):
        db = dbs[i % len(dbs)]
        db.query(spec(db))
    for i in range(WARMUP_BATCHES):
        db = dbs[i % len(dbs)]
        db.query_batch([spec(db) for _ in range(8)])


def ranking_for(svc, plan):
    if plan.is_1d:
        attr, w = plan.weights[0]
        return svc.ranking_1d(plan.source, attr, descending=w < 0)
    return svc.ranking_md(plan.source, dict(plan.weights))


def replay(svc, plans, first: int = 0):
    """Closed loop, one client: each call is sent when the previous returns.

    Returns one record per page attempted (sessions numbered from
    ``first``) and the ranking of each session; a call that raises is
    recorded as a failed page and ends its session.
    """
    from repro.core.service import UserQuery
    from repro.webdb.predicates import QuerySpec

    clock = time.perf_counter
    pages, rankings = [], []
    for i, plan in enumerate(plans, start=first):
        q = UserQuery(plan.source, QuerySpec({}, dict(plan.cats)),
                      ranking_for(svc, plan), page_size=PAGE_SIZE)
        rankings.append(q.ranking)
        sid = None
        for j in range(plan.pages):
            rec = {"session": i, "page": j, "kind": "first" if j == 0 else "next"}
            pages.append(rec)
            t0 = clock()
            try:
                if sid is None:
                    sid, rows, stats = svc.submit(q)
                else:
                    rows, stats = svc.get_next_page(sid)
            except Exception:
                rec.update(ms=(clock() - t0) * 1e3, queries=None,
                           error=traceback.format_exc(limit=3))
                break
            rec.update(ms=(clock() - t0) * 1e3, queries=stats.n_queries,
                       tids=[r["tid"] for r in rows])
    return pages, rankings


def check_exact(pages, plans, rankings, pdfs) -> int:
    """Mark each page against the exact ranking of the full hidden table
    (filter applied, sorted by the ranking's (score, tid) key); returns the
    number of failed pages."""
    from repro.webdb.predicates import QuerySpec

    truths = {}
    for rec in pages:
        plan, ranking = plans[rec["session"]], rankings[rec["session"]]
        key = (plan.source, plan.cats, ranking.signature())
        if key not in truths:
            pdf = pdfs[plan.source]
            rows = pdf[QuerySpec({}, dict(plan.cats)).mask(pdf)].to_dict("records")
            best = heapq.nsmallest(plan.pages * PAGE_SIZE, rows, key=ranking.key)
            truths[key] = [int(r["tid"]) for r in best]
        j = rec["page"]
        rec["ok"] = "tids" in rec and [int(t) for t in rec.pop("tids")] == \
            truths[key][j * PAGE_SIZE:(j + 1) * PAGE_SIZE]
    return sum(1 for p in pages if not p["ok"])


def histogram(xs) -> dict:
    bins = {}
    for x in xs:
        edge = next((e for e in HIST_EDGES_MS if x < e), None)
        label = f"<{edge}" if edge is not None else f">={HIST_EDGES_MS[-1]}"
        bins[label] = bins.get(label, 0) + 1
    return bins


def jvm_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of Spark's JVM, the simulated web databases."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def e2e_metrics(pages, window_s, n_queries, setup_times, rss_mb) -> dict:
    done = [p for p in pages if p["queries"] is not None]
    first = [p["ms"] for p in done if p["kind"] == "first"]
    nxt = [p["ms"] for p in done if p["kind"] == "next"]
    return {
        "first_page_ms.p50": (statistics.median(first), "ms"),
        "next_page_ms.p50": (statistics.median(nxt), "ms"),
        "pages_per_s": (len(done) / window_s, "1/s"),
        "webdb_queries_per_page": (n_queries / len(done), "queries"),
        "driver_peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def write_artifact(workload, seed, section, payload) -> Path:
    """Merge this run's section ("untraced" / "traced") into the artifact."""
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[section] = payload
    if "untraced" in doc and "traced" in doc:
        u = doc["untraced"]["e2e"]["pages_per_s"]
        tr = doc["traced"]["e2e"]["pages_per_s"]
        doc["trace_vs_untraced_pages_per_s"] = 1.0 - tr / u
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "service.py").is_file():
        print(f"error: no QR2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    configure_spark_env(tmp)
    try:
        return run(args, workloads)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, workloads) -> int:
    from repro import synth_data

    prelude, plans = workloads.make(args.workload, args.seed, args.seconds)
    pdfs = {
        "bluenile": synth_data.diamonds_pdf(n=N_TUPLES),
        "zillow": synth_data.houses_pdf(n=N_TUPLES),
    }
    bounds = exact_bounds(pdfs)

    t0 = time.perf_counter()
    spark = start_spark()
    spark_start_s = time.perf_counter() - t0
    try:
        setup_times, svc = [], None
        for _ in range(SETUP_REPEATS):
            if svc is not None:
                for db in svc.dbs.values():
                    db.df.unpersist()
            t0 = time.perf_counter()
            svc = build_service(spark, bounds)
            setup_times.append(time.perf_counter() - t0)

        # a prelude warms the JVM itself; otherwise send the fixed queries
        t0 = time.perf_counter()
        if prelude:
            pre_pages, pre_rankings = replay(svc, prelude)
        else:
            pre_pages, pre_rankings = [], []
            warm_up(list(svc.dbs.values()), bounds)
        warmup_s = time.perf_counter() - t0

        tracer, discovery_ok, layer = None, True, {}
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            # discovery through the public API, on the same sources
            from repro.core.service import QR2Service

            probe = QR2Service()
            before = sum(db.stats.n_queries for db in svc.dbs.values())
            for db in svc.dbs.values():
                probe.register_source(db)
            n_disc = sum(db.stats.n_queries for db in svc.dbs.values()) - before
            discovery_ok = probe.bounds == bounds
            layer.update(tracing.discovery_metrics(tracer.spans, n_disc))
            tracer.clear()

        # set-up objects and the harness's own data stay out of the
        # collector's way, so a page's latency does not depend on them
        gc.collect()
        gc.freeze()
        before = sum(db.stats.n_queries for db in svc.dbs.values())
        t0 = time.perf_counter()
        pages, rankings = replay(svc, plans, first=len(prelude))
        window_s = time.perf_counter() - t0
        n_queries = sum(db.stats.n_queries for db in svc.dbs.values()) - before
        # peak RSS of the QR2 service process (KiB on Linux)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer is not None:
            tracer.uninstall()
            layer.update(tracing.layer_metrics(
                tracer.spans, dense_indexes=list(svc.indexes.values()),
                window_s=window_s, overhead_s=tracer.overhead_s))
        jvm_rss_mb = jvm_peak_rss_mb(spark.sparkContext._gateway.proc.pid)
    finally:
        stop_spark(spark)

    checked = pre_pages + pages
    failed = check_exact(checked, prelude + plans, pre_rankings + rankings, pdfs)
    correct = failed == 0 and discovery_ok
    e2e = e2e_metrics(pages, window_s, n_queries, setup_times, rss_mb)
    done = [p for p in pages if p["queries"] is not None]

    fingerprint = [p["queries"] for p in pages]
    artifact = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "sessions": len(plans), "pages": len(pages), "failed": failed,
        "prelude_query_counts": [p["queries"] for p in pre_pages],
        "prelude_page_ms": [p["ms"] for p in pre_pages],
        "window_s": window_s, "spark_start_s": spark_start_s,
        "setup_times_s": setup_times, "spark_cores": SPARK_CORES,
        "warmup_s": warmup_s, "jvm_peak_rss_mb": jvm_rss_mb,
        "e2e": {k: v for k, (v, _) in e2e.items()},
        "samples": {k: sum(1 for p in done if p["kind"] == k) for k in ("first", "next")},
        "histogram_ms": {k: histogram([p["ms"] for p in done if p["kind"] == k])
                         for k in ("first", "next")},
        "query_count_fingerprint": fingerprint,
        "page_ms": [p["ms"] for p in pages],
        "errors": [p["error"] for p in checked if "error" in p],
    }
    if args.trace:
        artifact["layers"] = {k: v for k, (v, _) in layer.items()}
        artifact["discovery_exact"] = discovery_ok
    path = write_artifact(args.workload, args.seed,
                          "traced" if args.trace else "untraced", artifact)

    shown = layer if args.trace else e2e
    print(f"workload {args.workload} seed {args.seed}: {len(plans)} sessions, "
          f"{len(pages)} pages in {window_s:.2f} s; artifact {path.relative_to(ROOT)}")
    if args.trace:
        print("traced end-to-end (not comparable to untraced runs):")
        for k, (v, u) in e2e.items():
            print(f"  {k} {v:.6g} {u}")
    for k, (v, u) in shown.items():
        print(f"{k} {v:.6g} {u}")
    print(f"failed_frac {failed / len(checked):.6g} ratio")
    print(f"exactness: {'all pages exact' if correct else 'MISMATCH'} "
          f"({len(checked) - failed}/{len(checked)} pages"
          + ("" if discovery_ok else "; discovery bounds wrong") + ")")
    print(json.dumps({
        "correct": correct,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
