"""Command-line interface.

Run as ``python -m repro`` or via the ``repro-skyline`` console script::

    repro-skyline generate --kind synthetic --rows 5000 --values 24 24 24 --out data/
    repro-skyline info data/
    repro-skyline query data/ --query 3,7,1 --algorithm TRS --memory 0.1
    repro-skyline influence data/ --probes 3,7,1 0,0,0 --algorithm TRS
    repro-skyline sweep memory --dataset ci
"""

from __future__ import annotations

import argparse
import sys

from repro.advisor import recommend
from repro.core.registry import ALGORITHMS, make_algorithm
from repro.core.skyband import ReverseSkybandTRS
from repro.data.stats import profile_dataset
from repro.data.realistic import census_income_like, forest_cover_like
from repro.data.synthetic import synthetic_dataset
from repro.dissim.analysis import analyze_metricity
from repro.dissim.matrix import MatrixDissimilarity
from repro.errors import ReproError
from repro.experiments.sweeps import attrs_sweep, memory_sweep, size_sweep, values_sweep
from repro.experiments.tables import format_measurements
from repro.experiments.workloads import ci_dataset, fc_dataset, queries_for, standard_synthetic
from repro.influence.analysis import influence_analysis
from repro.kernels import BACKENDS
from repro.persist.format import load_dataset, save_dataset

__all__ = ["main", "build_parser"]


def _parse_query(text: str, dataset) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dataset.num_attributes:
        raise ReproError(
            f"query has {len(parts)} values; dataset has {dataset.num_attributes} attributes"
        )
    values = []
    for part, attr in zip(parts, dataset.schema):
        values.append(int(part) if attr.is_categorical else float(part))
    return dataset.validate_query(tuple(values))


def _cmd_generate(args) -> int:
    if args.kind == "synthetic":
        if not args.values:
            raise ReproError("--values is required for synthetic datasets")
        ds = synthetic_dataset(args.rows, args.values, seed=args.seed)
    elif args.kind == "ci":
        ds = census_income_like(target_rows=args.rows, seed=args.seed)
    elif args.kind == "fc":
        ds = forest_cover_like(target_rows=args.rows, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown dataset kind {args.kind!r}")
    path = save_dataset(ds, args.out)
    print(f"wrote {ds.describe()} to {path}")
    return 0


def _cmd_info(args) -> int:
    ds = load_dataset(args.dataset)
    print(ds.describe())
    for i, attr in enumerate(ds.schema):
        if attr.is_categorical:
            dissim = ds.space[i]
            assert isinstance(dissim, MatrixDissimilarity)
            report = analyze_metricity(dissim)
            print(f"  {attr.name}: {report.summary()}")
        else:
            print(f"  {attr.name}: numeric")
    return 0


def _cmd_query(args) -> int:
    ds = load_dataset(args.dataset)
    query = _parse_query(args.query, ds)
    algo = make_algorithm(
        args.algorithm, ds, backend=args.backend, memory_fraction=args.memory
    )
    result = algo.run(query)
    s = result.stats
    print(f"algorithm : {result.algorithm}")
    print(f"backend   : {result.backend}")
    print(f"result    : {list(result.record_ids)}")
    print(f"checks    : {s.checks:,}")
    print(f"io        : {s.io.sequential} sequential + {s.io.random} random page IOs")
    print(f"wall time : {s.wall_time_s * 1000:.1f} ms")
    return 0


def _cmd_influence(args) -> int:
    ds = load_dataset(args.dataset)
    probes = {text: _parse_query(text, ds) for text in args.probes}
    report = influence_analysis(
        ds, probes, algorithm=args.algorithm, memory_fraction=args.memory
    )
    for label, score in report.ranked():
        print(f"{label}: {score}")
    print(f"skew (gini): {report.skew():.3f}")
    return 0


def _parse_subset_query(text: str, dataset, indices) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(indices):
        raise ReproError(
            f"query has {len(parts)} values; --attributes selects {len(indices)}"
        )
    values = []
    for part, i in zip(parts, indices):
        attr = dataset.schema[i]
        values.append(int(part) if attr.is_categorical else float(part))
    return tuple(values)


def _cmd_batch(args) -> int:
    from repro.engine import ReverseSkylineEngine

    ds = load_dataset(args.dataset)
    texts = list(args.queries or [])
    if args.queries_file:
        try:
            with open(args.queries_file, encoding="utf-8") as fh:
                texts += [line.strip() for line in fh if line.strip()]
        except OSError as exc:
            raise ReproError(f"cannot read --queries-file: {exc}") from exc
    if not texts:
        raise ReproError("no queries given; use --queries and/or --queries-file")
    if args.attributes:
        if args.k > 1:
            raise ReproError("--attributes cannot be combined with -k > 1")
        # Resolve names up front: an unknown attribute is one readable
        # batch-level error, not a traceback and not N per-query failures.
        indices = [ds.schema.index_of(name) for name in args.attributes]
        queries = [_parse_subset_query(t, ds, indices) for t in texts] * args.repeat
        kind = "subset"
    else:
        queries = [_parse_query(text, ds) for text in texts] * args.repeat
        kind = "skyband" if args.k > 1 else "query"
    fault_injector = None
    retry_policy = None
    if args.inject_faults:
        from repro.faults import FaultInjector, FaultPlan

        plan = FaultPlan.storm(args.inject_faults)
        fault_injector = FaultInjector(plan, seed=args.fault_seed)
    if args.retries is not None:
        from repro.faults import RetryPolicy

        retry_policy = RetryPolicy(max_attempts=args.retries)
    engine = ReverseSkylineEngine(
        ds,
        algorithm=args.algorithm,
        memory_fraction=args.memory,
        fault_injector=fault_injector,
        retry_policy=retry_policy,
        backend=args.backend,
    )
    instrument = bool(args.trace or args.metrics_out)
    if instrument:
        from repro.obs import QueryProfiler

        profile_cm = QueryProfiler()
    else:
        from contextlib import nullcontext

        profile_cm = nullcontext()
    with profile_cm as prof:
        report = engine.query_many(
            queries,
            kind=kind,
            k=args.k,
            attributes=args.attributes,
            pool=args.pool,
            workers=args.workers,
            cache=not args.no_cache,
            plan=args.plan,
            shm=args.shm,
        )
    if instrument:
        _write_obs_artifacts(args, prof)
    if args.show_results:
        for spec, result in zip(report.specs, report.results):
            answer = "FAILED" if result is None else list(result.record_ids)
            print(f"{','.join(map(str, spec.query))} -> {answer}")
    s = report.summary()
    print(f"queries     : {s['queries']} ({s['computed']} computed, "
          f"{s['cache_hits']} cache hits, {s['failed']} failed)")
    print(f"pool        : {s['pool']} x {s['workers']}")
    if args.plan:
        print(f"planned     : {s['planned']} answered via shared scans")
    print(f"backend     : {', '.join(s['backends']) or 'n/a'}")
    print(f"checks      : {s['checks']:,}")
    print(f"page ios    : {s['page_ios']:,}")
    if fault_injector is not None:
        print(f"fault model : rate={args.inject_faults}, seed={args.fault_seed}")
        print(f"recovery    : {s['faults_seen']} storage faults seen, "
              f"{s['io_retries']} page-IO retries")
    print(f"batch time  : {s['batch_wall_time_s'] * 1000:.1f} ms "
          f"({s['queries'] / s['batch_wall_time_s']:.0f} queries/s)")
    print(f"speedup     : {s['speedup_vs_serial_sum']:.2f}x vs summed query time")
    for i, error in report.failures():
        print(f"failed [{i}]: {error.describe()}", file=sys.stderr)
    return 3 if report.failed else 0


def _write_obs_artifacts(args, prof) -> None:
    """Persist a batch's captured trace / metrics (``batch --trace`` /
    ``--metrics-out``)."""
    from repro.obs import snapshot_to_prometheus, trace_to_json

    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(trace_to_json(prof.trace))
        except OSError as exc:
            raise ReproError(f"cannot write --trace file: {exc}") from exc
        print(f"trace       : {len(prof.trace)} spans -> {args.trace}")
    if args.metrics_out:
        try:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(snapshot_to_prometheus(prof.snapshot))
        except OSError as exc:
            raise ReproError(f"cannot write --metrics-out file: {exc}") from exc
        print(f"metrics     : prometheus exposition -> {args.metrics_out}")


def _cmd_serve(args) -> int:
    """Run the resident query service until shutdown."""
    from repro.engine import ReverseSkylineEngine
    from repro.serve import ServiceConfig
    from repro.serve.server import run_server

    ds = load_dataset(args.dataset)
    engine = ReverseSkylineEngine(
        ds,
        algorithm=args.algorithm,
        memory_fraction=args.memory,
        backend=args.backend,
        log_queries=True,
    )
    config = ServiceConfig(
        pool=args.pool,
        workers=args.workers,
        queue_depth=args.queue_depth,
        batch_window_s=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        tenant_rate=args.rate,
        tenant_burst=args.burst,
        default_deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms else None
        ),
        plan=args.plan,
        shm=args.shm,
        cache=not args.no_cache,
    )
    print(
        f"serving {ds.describe()} on {args.host}:{args.port or '<ephemeral>'} "
        f"({config.pool} x {config.workers}, window {args.window_ms}ms)"
    )
    run_server(
        engine,
        config,
        host=args.host,
        port=args.port,
        max_requests=args.max_requests,
        port_file=args.port_file,
    )
    return 0


def _cmd_serve_load(args) -> int:
    """Closed-loop load driver against a running serve endpoint."""
    from repro.serve.client import run_closed_loop

    ds = load_dataset(args.dataset)
    texts = list(args.queries or [])
    if args.queries_file:
        try:
            with open(args.queries_file, encoding="utf-8") as fh:
                texts += [line.strip() for line in fh if line.strip()]
        except OSError as exc:
            raise ReproError(f"cannot read --queries-file: {exc}") from exc
    if texts:
        queries = [_parse_query(text, ds) for text in texts]
    else:
        queries = list(queries_for(ds, args.auto_queries))
    report = run_closed_loop(
        args.host,
        args.port,
        queries,
        clients=args.clients,
        requests_per_client=args.requests,
        tenant_per_client=args.tenant_per_client,
        deadline_ms=args.deadline_ms,
    )
    d = report.as_dict()
    print(f"clients     : {d['clients']} x {args.requests} requests")
    print(f"outcomes    : {d['ok']} ok, {d['shed']} shed, "
          f"{d['deadline']} deadline, {d['failed']} failed")
    print(f"throughput  : {d['qps']:.1f} qps over {d['wall_s'] * 1000:.0f} ms")
    print(f"latency     : p50 {d['p50_ms']:.2f} ms, p95 {d['p95_ms']:.2f} ms, "
          f"p99 {d['p99_ms']:.2f} ms")
    print(f"server path : {d['planned']} shared-scan, {d['cached']} cached")
    if "retry_after_min_s" in d:
        print(f"retry-after : {d['retry_after_min_s']}s .. {d['retry_after_max_s']}s")
    return 0


def _cmd_metrics(args) -> int:
    """Run an instrumented batch and emit the metrics exposition."""
    from repro.engine import ReverseSkylineEngine
    from repro.obs import (
        QueryProfiler,
        render_trace,
        snapshot_to_json,
        snapshot_to_prometheus,
    )

    ds = load_dataset(args.dataset)
    texts = list(args.queries or [])
    if args.queries_file:
        try:
            with open(args.queries_file, encoding="utf-8") as fh:
                texts += [line.strip() for line in fh if line.strip()]
        except OSError as exc:
            raise ReproError(f"cannot read --queries-file: {exc}") from exc
    if not texts:
        raise ReproError("no queries given; use --queries and/or --queries-file")
    queries = [_parse_query(text, ds) for text in texts]
    engine = ReverseSkylineEngine(
        ds, algorithm=args.algorithm, memory_fraction=args.memory
    )
    with QueryProfiler() as prof:
        report = engine.query_many(
            queries, pool=args.pool, workers=args.workers, cache=not args.no_cache
        )
    render = snapshot_to_json if args.format == "json" else snapshot_to_prometheus
    text = render(prof.snapshot)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ReproError(f"cannot write --out file: {exc}") from exc
        print(f"wrote {args.format} metrics to {args.out}")
    else:
        print(text, end="")
    if args.breakdown:
        print("# per-phase attribution (self time)", file=sys.stderr)
        for row in prof.breakdown():
            print(
                f"# {row.name}: n={row.count} total={row.total_s * 1000:.1f}ms "
                f"self={row.self_s * 1000:.1f}ms",
                file=sys.stderr,
            )
    if args.show_trace:
        print(render_trace(prof.trace), file=sys.stderr)
    return 3 if report.failed else 0


def _cmd_skyband(args) -> int:
    ds = load_dataset(args.dataset)
    query = _parse_query(args.query, ds)
    algo = ReverseSkybandTRS(ds, k=args.k, memory_fraction=args.memory)
    result = algo.run(query)
    print(f"reverse {args.k}-skyband: {list(result.record_ids)}")
    print(f"checks: {result.stats.checks:,}")
    return 0


def _cmd_profile(args) -> int:
    ds = load_dataset(args.dataset)
    profile = profile_dataset(ds)
    print(profile.summary())
    for ap in profile.attributes:
        kind = (
            f"categorical({ap.domain_cardinality})" if ap.is_categorical else "numeric"
        )
        print(
            f"  {ap.name}: {kind}, observed={ap.observed_distinct}, "
            f"entropy={ap.entropy_bits:.2f} bits, top-share={ap.top_value_share:.1%}"
        )
    return 0


def _cmd_advise(args) -> int:
    ds = load_dataset(args.dataset)
    rec = recommend(
        ds,
        subset_queries_expected=args.subset_queries,
        calibrate=args.calibrate,
    )
    print(f"recommended algorithm: {rec.algorithm}")
    print(f"attribute order      : {list(rec.attribute_order)}")
    print(f"memory fraction      : {rec.memory_fraction}")
    for line in rec.rationale:
        print(f"  - {line}")
    if rec.calibration:
        for name, checks in sorted(rec.calibration.items()):
            print(f"  measured {name}: {checks:,.0f} checks/query")
    return 0


def _cmd_backends(args) -> int:
    """List every algorithm with its backend/dispatch capabilities."""
    from repro.kernels import available_backends, resolve_algorithm

    header = f"{'algorithm':<12} {'backends':<18} auto-dispatch"
    print(header)
    print("-" * len(header))
    for name in sorted(ALGORITHMS):
        backends = ",".join(available_backends(name))
        upgraded = resolve_algorithm(name, "auto")
        auto = f"-> {upgraded}" if upgraded != name else "-"
        print(f"{name:<12} {backends:<18} {auto}")
    return 0


_SWEEPS = {
    "memory": lambda ds: memory_sweep(ds, queries=queries_for(ds, 2)),
    "size": lambda ds: size_sweep(),
    "values": lambda ds: values_sweep(),
    "attrs": lambda ds: attrs_sweep(),
}
_SWEEP_PARAMS = {"memory": ("memory",), "size": ("n", "density"),
                 "values": ("values", "density"), "attrs": ("attrs", "density")}


def _cmd_report(args) -> int:
    from repro.experiments.report import write_report

    out = write_report(args.results, args.out)
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args) -> int:
    if args.dataset == "ci":
        ds = ci_dataset()
    elif args.dataset == "fc":
        ds = fc_dataset()
    else:
        ds = standard_synthetic()
    rows = _SWEEPS[args.sweep](ds)
    print(format_measurements(rows, param_keys=_SWEEP_PARAMS[args.sweep]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-skyline",
        description="Reverse skyline retrieval with arbitrary non-metric similarity measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and persist a dataset")
    gen.add_argument("--kind", choices=("synthetic", "ci", "fc"), default="synthetic")
    gen.add_argument("--rows", type=int, default=5000)
    gen.add_argument("--values", type=int, nargs="+", help="per-attribute cardinalities")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="describe a persisted dataset")
    info.add_argument("dataset")
    info.set_defaults(func=_cmd_info)

    query = sub.add_parser("query", help="run one reverse-skyline query")
    query.add_argument("dataset")
    query.add_argument("--query", required=True, help="comma-separated attribute values")
    query.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="TRS")
    query.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="compute backend: python (scalar), numpy (vectorised kernels), "
             "or auto (numpy when the algorithm/dataset qualify)",
    )
    query.add_argument("--memory", type=float, default=0.10)
    query.set_defaults(func=_cmd_query)

    infl = sub.add_parser("influence", help="rank probe objects by RS size")
    infl.add_argument("dataset")
    infl.add_argument("--probes", nargs="+", required=True)
    infl.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="TRS")
    infl.add_argument("--memory", type=float, default=0.10)
    infl.set_defaults(func=_cmd_influence)

    batch = sub.add_parser(
        "batch", help="answer a batch of queries over a pooled, cached executor"
    )
    batch.add_argument("dataset")
    batch.add_argument("--queries", nargs="+", help="comma-separated query objects")
    batch.add_argument("--queries-file", help="file with one query per line")
    batch.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="TRS")
    batch.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="compute backend: python (scalar), numpy (vectorised kernels), "
             "or auto (numpy when the algorithm/dataset qualify)",
    )
    batch.add_argument("--memory", type=float, default=0.10)
    batch.add_argument("--pool", choices=("serial", "thread", "process"), default="thread")
    batch.add_argument("--workers", type=int, default=None)
    batch.add_argument("--no-cache", action="store_true")
    batch.add_argument(
        "--plan", action=argparse.BooleanOptionalAction, default=False,
        help="group compatible queries and answer each group through one "
             "shared multi-query scan (results stay bit-identical)",
    )
    batch.add_argument(
        "--shm", action=argparse.BooleanOptionalAction, default=False,
        help="process pool: publish the dataset and built plans to "
             "workers over shared memory instead of pickling",
    )
    batch.add_argument("-k", type=int, default=1, help="k>1 answers reverse k-skybands")
    batch.add_argument("--repeat", type=int, default=1, help="replay the batch N times")
    batch.add_argument("--show-results", action="store_true")
    batch.add_argument(
        "--attributes", nargs="+", metavar="NAME",
        help="answer over this attribute subset (queries give values for "
             "exactly these attributes, in order)",
    )
    batch.add_argument(
        "--inject-faults", type=float, default=0.0, metavar="RATE",
        help="chaos-test the batch: inject transient storage/worker faults "
             "at RATE and recover via retries",
    )
    batch.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the deterministic fault schedule")
    batch.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max attempts per faulting operation before a query is "
             "reported failed (default 4)",
    )
    batch.add_argument(
        "--trace", metavar="FILE", default=None,
        help="capture the batch's span tree and write it as JSON",
    )
    batch.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the batch's metrics in Prometheus exposition format",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="run the resident query service over a dataset"
    )
    serve.add_argument("dataset")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; see --port-file)")
    serve.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="TRS")
    serve.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="compute backend preference for the warm engine",
    )
    serve.add_argument("--memory", type=float, default=0.10)
    serve.add_argument("--pool", choices=("thread", "process"), default="thread")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admitted-but-unfinished requests before shedding")
    serve.add_argument("--window-ms", type=float, default=2.0,
                       help="micro-batch collection window")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-tenant token-bucket refill (req/s; 0 = off)")
    serve.add_argument("--burst", type=float, default=0.0,
                       help="per-tenant bucket capacity (default max(1, rate))")
    serve.add_argument("--deadline-ms", type=float, default=0.0,
                       help="default per-request deadline (0 = unbounded)")
    serve.add_argument(
        "--plan", action=argparse.BooleanOptionalAction, default=True,
        help="warm the numpy plan cache at startup (coalescing does not "
        "depend on this flag)",
    )
    serve.add_argument(
        "--shm", action=argparse.BooleanOptionalAction, default=True,
        help="process pool: feed workers through shared memory",
    )
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="shut down after N query responses (CI/tests)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port here once listening")
    serve.set_defaults(func=_cmd_serve)

    load = sub.add_parser(
        "serve-load", help="drive closed-loop load against a serve endpoint"
    )
    load.add_argument("dataset", help="dataset the server is serving "
                      "(for query parsing/generation)")
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, required=True)
    load.add_argument("--queries", nargs="+", help="comma-separated query objects")
    load.add_argument("--queries-file", help="file with one query per line")
    load.add_argument("--auto-queries", type=int, default=16,
                      help="generate N workload queries when none are given")
    load.add_argument("--clients", type=int, default=4)
    load.add_argument("--requests", type=int, default=25,
                      help="requests per client")
    load.add_argument("--deadline-ms", type=float, default=None)
    load.add_argument("--tenant-per-client", action="store_true",
                      help="each client claims its own tenant id")
    load.set_defaults(func=_cmd_serve_load)

    metrics = sub.add_parser(
        "metrics", help="run an instrumented batch and emit its metrics"
    )
    metrics.add_argument("dataset")
    metrics.add_argument("--queries", nargs="+", help="comma-separated query objects")
    metrics.add_argument("--queries-file", help="file with one query per line")
    metrics.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="TRS")
    metrics.add_argument("--memory", type=float, default=0.10)
    metrics.add_argument("--pool", choices=("serial", "thread", "process"),
                         default="serial")
    metrics.add_argument("--workers", type=int, default=None)
    metrics.add_argument("--no-cache", action="store_true")
    metrics.add_argument("--format", choices=("prom", "json"), default="prom")
    metrics.add_argument("--out", metavar="FILE", default=None,
                         help="write the exposition here instead of stdout")
    metrics.add_argument("--breakdown", action="store_true",
                         help="print per-phase wall-time attribution to stderr")
    metrics.add_argument("--show-trace", action="store_true",
                         help="print the span tree to stderr")
    metrics.set_defaults(func=_cmd_metrics)

    band = sub.add_parser("skyband", help="run a reverse k-skyband query")
    band.add_argument("dataset")
    band.add_argument("--query", required=True)
    band.add_argument("-k", type=int, default=2)
    band.add_argument("--memory", type=float, default=0.10)
    band.set_defaults(func=_cmd_skyband)

    prof = sub.add_parser("profile", help="profile a persisted dataset")
    prof.add_argument("dataset")
    prof.set_defaults(func=_cmd_profile)

    advise = sub.add_parser("advise", help="recommend an algorithm for a dataset")
    advise.add_argument("dataset")
    advise.add_argument("--subset-queries", action="store_true")
    advise.add_argument("--calibrate", action="store_true")
    advise.set_defaults(func=_cmd_advise)

    backends = sub.add_parser(
        "backends",
        help="list algorithms with their backend and capability flags",
    )
    backends.set_defaults(func=_cmd_backends)

    sweep = sub.add_parser("sweep", help="run a paper experiment sweep")
    sweep.add_argument("sweep", choices=sorted(_SWEEPS))
    sweep.add_argument("--dataset", choices=("ci", "fc", "synthetic"), default="synthetic")
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser(
        "report", help="aggregate benchmark artifacts into one markdown file"
    )
    report.add_argument("--results", default="benchmarks/results")
    report.add_argument("--out", default="REPORT.md")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
