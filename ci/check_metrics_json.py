#!/usr/bin/env python3
"""Validates a MetricsRegistry JSON export (schema topodb.metrics.v1/v2).

Usage: check_metrics_json.py <path> [--require-semcache | --server]

CI archives the per-stage timing export produced by bench_pipeline_batch
(TOPODB_METRICS_JSON=<path>) and fails if the file is not well-formed JSON,
declares an unknown schema, or is missing the per-stage instrumentation
the serving path is supposed to emit. Both schema versions are accepted:
v2 adds the interpolated "p95" histogram field, which is required when
the export declares v2.

--require-semcache switches the expected series to the query planner /
semantic-cache instrumentation (bench_query_plan's registry does not run
the ingest pipeline, so the pipeline.* series are absent there): counters
semcache.{hits,misses,evictions,insertions} and planner.plans, gauges
semcache.{entries,bytes}, and the planner.plan_us histogram.

--server switches them to what a TopoDbServer registry emits for inline
COMPUTE_INVARIANT / BATCH_INVARIANTS traffic (bench_server_load's export):
counter pipeline.items, the pipeline.*_us stage histograms and the text
cache counters textcache.{hits,misses,insertions}. The server runs the
pipeline without the structural InvariantCache, so the default mode's
pipeline.cache_{hits,misses} series are absent there.
"""
import json
import sys


ACCEPTED_SCHEMAS = ["topodb.metrics.v1", "topodb.metrics.v2"]
EXPECTED_COUNTERS = [
    "pipeline.items",
    "pipeline.cache_hits",
    "pipeline.cache_misses",
    "arrangement.builds",
]
EXPECTED_HISTOGRAMS = [
    "pipeline.arrangement_us",
    "pipeline.extract_us",
    "pipeline.canonical_us",
    "pipeline.batch_us",
]
SEMCACHE_COUNTERS = [
    "semcache.hits",
    "semcache.misses",
    "semcache.evictions",
    "semcache.insertions",
    "planner.plans",
]
SEMCACHE_GAUGES = [
    "semcache.entries",
    "semcache.bytes",
]
SEMCACHE_HISTOGRAMS = [
    "planner.plan_us",
]
SERVER_COUNTERS = [
    "pipeline.items",
    "textcache.hits",
    "textcache.misses",
    "textcache.insertions",
]
HISTOGRAM_FIELDS_V1 = ["count", "sum", "min", "max", "mean", "p50", "p90", "p99"]
HISTOGRAM_FIELDS_V2 = HISTOGRAM_FIELDS_V1 + ["p95"]


def fail(message):
    print(f"metrics JSON invalid: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    flags = ("--require-semcache", "--server")
    args = [a for a in sys.argv[1:] if a not in flags]
    require_semcache = "--require-semcache" in sys.argv[1:]
    server = "--server" in sys.argv[1:]
    if len(args) != 1 or (require_semcache and server):
        fail("usage: check_metrics_json.py <path> "
             "[--require-semcache | --server]")
    try:
        with open(args[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(str(err))
    schema = doc.get("schema")
    if schema not in ACCEPTED_SCHEMAS:
        fail(f"unexpected schema {schema!r} (accepted: {ACCEPTED_SCHEMAS})")
    histogram_fields = (
        HISTOGRAM_FIELDS_V2 if schema == "topodb.metrics.v2" else HISTOGRAM_FIELDS_V1
    )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"missing section {section!r}")
    if require_semcache:
        expected_counters, expected_histograms = (
            SEMCACHE_COUNTERS, SEMCACHE_HISTOGRAMS)
    elif server:
        expected_counters, expected_histograms = (
            SERVER_COUNTERS, EXPECTED_HISTOGRAMS)
    else:
        expected_counters, expected_histograms = (
            EXPECTED_COUNTERS, EXPECTED_HISTOGRAMS)
    for name in expected_counters:
        if name not in doc["counters"]:
            fail(f"missing counter {name!r}")
        if not isinstance(doc["counters"][name], int):
            fail(f"counter {name!r} is not an integer")
    if require_semcache:
        for name in SEMCACHE_GAUGES:
            if not isinstance(doc["gauges"].get(name), (int, float)):
                fail(f"missing gauge {name!r}")
        if doc["counters"]["semcache.hits"] <= 0:
            fail("semcache.hits is not positive")
        if doc["counters"]["planner.plans"] <= 0:
            fail("planner.plans is not positive")
    else:
        if doc["counters"]["pipeline.items"] <= 0:
            fail("pipeline.items is not positive")
    for name in expected_histograms:
        hist = doc["histograms"].get(name)
        if not isinstance(hist, dict):
            fail(f"missing histogram {name!r}")
        for field in histogram_fields:
            if not isinstance(hist.get(field), (int, float)):
                fail(f"histogram {name!r} missing field {field!r}")
        if hist["count"] > 0 and hist["min"] > hist["max"]:
            fail(f"histogram {name!r} has min > max")
    print(
        f"metrics JSON OK ({schema}): {len(doc['counters'])} counters, "
        f"{len(doc['gauges'])} gauges, {len(doc['histograms'])} histograms"
    )


if __name__ == "__main__":
    main()
