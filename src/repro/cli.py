"""Command-line interface to the ProFIPy service layer.

Subcommands mirror the workflow phases (paper Fig. 2)::

    profipy models list                       # fault model registry
    profipy models show gswfit
    profipy models export gswfit out.json
    profipy scan TARGET --model gswfit        # Scan phase
    profipy mutate FILE --model gswfit --spec MFC --ordinal 0
    profipy campaign TARGET --model gswfit --run-cmd '...'   # Execution
    profipy casestudy --campaign wrong_inputs # the §V case study
    profipy serve --port 8080                 # the /v1 HTTP service API
    profipy serve --tenants tenants.json      # multi-tenant mode (auth on)
    profipy tenants list                      # tenant quotas + live load
    profipy worker --join URL                 # join a coordinator's fleet
    profipy jobs list [--server URL --token T]  # jobs, local or remote
    profipy workers list [--server URL]       # the registered fleet
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.report import summary_table
from repro.casestudy import run_case_study
from repro.faultmodel.casestudy import ALL_CAMPAIGNS
from repro.faultmodel.library import predefined_models
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import CampaignConfig
from repro.scanner.scan import scan_tree
from repro.service.service import ProFIPyService
from repro.stats.config import SamplingConfig
from repro.stats.sampler import STRATIFY_CHOICES
from repro.workload.spec import WorkloadSpec


def _load_model(args) -> FaultModel:
    if getattr(args, "model_file", None):
        return FaultModel.load(args.model_file)
    name = args.model
    predefined = predefined_models()
    if name in predefined:
        return predefined[name]
    path = Path(name)
    if path.exists():
        return FaultModel.load(path)
    raise SystemExit(
        f"unknown fault model {name!r} "
        f"(predefined: {sorted(predefined)}; or pass a JSON path)"
    )


# -- models ---------------------------------------------------------------------


def cmd_models(args) -> int:
    service = ProFIPyService(args.workspace)
    if args.models_command == "list":
        print("predefined:")
        for name, model in sorted(predefined_models().items()):
            print(f"  {name}: {len(model.faults)} fault types")
        stored = service.stored_models()
        if stored:
            print("stored:")
            for name in stored:
                print(f"  {name}")
        return 0
    if args.models_command == "show":
        model = _load_model(args)
        print(f"fault model {model.name}: {model.description}")
        for fault in model.faults:
            flag = "" if fault.enabled else " (disabled)"
            print(f"\n[{fault.name}] {fault.odc_class}{flag}")
            print(f"  {fault.description}")
            print("  " + "\n  ".join(fault.spec.raw.strip().splitlines()))
        return 0
    if args.models_command == "export":
        model = _load_model(args)
        model.save(args.output)
        print(f"wrote {args.output}")
        return 0
    raise SystemExit(f"unknown models command {args.models_command!r}")


# -- scan -----------------------------------------------------------------------


def cmd_scan(args) -> int:
    from repro.scanner.cache import ScanCache

    model = _load_model(args)
    cache = ScanCache(args.cache_dir) if args.cache_dir else None
    result = scan_tree(args.target, model.enabled_specs(), jobs=args.jobs,
                       cache=cache, incremental=not args.no_incremental)
    for point in result.points:
        print(f"{point.point_id}  line {point.lineno}  {point.snippet}")
    print(
        f"\n{len(result.points)} injection points in "
        f"{result.files_scanned} files "
        f"({len(result.by_spec())} fault types matched)",
        file=sys.stderr,
    )
    for file, error in result.parse_errors.items():
        print(f"warning: could not parse {file}: {error}", file=sys.stderr)
    return 0


# -- mutate -----------------------------------------------------------------------


def cmd_mutate(args) -> int:
    from repro.common.rng import SeededRandom
    from repro.dsl.compiler import compile_spec
    from repro.mutator.mutate import Mutator

    model = _load_model(args)
    fault = model.get(args.spec)
    compiled = compile_spec(fault.spec)
    source = Path(args.target).read_text(encoding="utf-8")
    mutator = Mutator(trigger=not args.no_trigger,
                      rng=SeededRandom(args.seed))
    mutation = mutator.mutate_source(source, compiled, args.ordinal,
                                     file=Path(args.target).name)
    if args.output:
        Path(args.output).write_text(mutation.source, encoding="utf-8")
        print(f"wrote {args.output} ({mutation.describe()})",
              file=sys.stderr)
    else:
        print(mutation.source, end="")
    return 0


# -- campaign ----------------------------------------------------------------------


def cmd_campaign(args) -> int:
    model = _load_model(args)
    workload = WorkloadSpec(
        service_commands=args.service_cmd or [],
        commands=args.run_cmd,
        ready_file=args.ready_file,
        command_timeout=args.timeout,
    )
    workspace = Path(args.workspace) if args.workspace else None
    sampling = None
    if (args.sample_margin is not None or args.stratify_by
            or args.min_sample):
        sampling = SamplingConfig(
            max_experiments=args.sample,
            min_experiments=args.min_sample or 0,
            margin=args.sample_margin,
            confidence=args.sample_confidence,
            stratify_by=args.stratify_by,
        )
    config = CampaignConfig(
        name=args.name,
        target_dir=Path(args.target),
        fault_model=model,
        workload=workload,
        injectable_files=args.files or None,
        trigger=not args.no_trigger,
        coverage=not args.no_coverage,
        sample=args.sample,
        sampling=sampling,
        parallelism=args.parallel,
        backend=args.backend,
        shards=args.shards,
        workers=args.worker or None,
        registry_url=args.registry,
        scan_jobs=args.scan_jobs,
        scan_cache_dir=(Path(args.scan_cache) if args.scan_cache else None),
        scan_incremental=not args.no_incremental_scan,
        seed=args.seed,
        workspace=workspace,
        keep_artifacts=args.keep_artifacts,
        resume=not args.no_resume,
    )
    service = ProFIPyService(args.workspace)
    job = service.submit_campaign(config, block=True,
                                  resume_from=args.resume_from)
    if job.status != "completed":
        print(f"campaign job {job.job_id} failed:\n{job.error}",
              file=sys.stderr)
        return 1
    print(service.report_text(job.job_id))
    summary = service.result_summary(job.job_id)
    if summary.get("resumed"):
        print(f"(resumed: {summary['resumed']} experiments replayed from "
              "the result stream)", file=sys.stderr)
    if summary.get("artifacts_dir"):
        print(f"(campaign artifacts kept at {summary['artifacts_dir']}; "
              f"workspace {summary.get('workspace')})", file=sys.stderr)
    print(f"(job {job.job_id}; run 'profipy regression {job.job_id}' to "
          "generate regression tests)", file=sys.stderr)
    return 0


# -- serve / jobs / regression ---------------------------------------------------------


def cmd_serve(args) -> int:
    from repro.service.http import serve

    serve(args.workspace, host=args.host, port=args.port,
          max_workers=args.max_workers, tenants=args.tenants)
    return 0


def cmd_worker(args) -> int:
    """Serve the worker role for remote-backend campaigns.

    A worker is a full ``/v1`` service instance — the shard endpoints
    (``POST /v1/shards`` …) are what a dispatching campaign's remote
    backend talks to.  Run one per execution host and either point
    ``profipy campaign --backend remote --worker URL`` at them, or give
    each worker ``--join COORDINATOR_URL`` and point campaigns at the
    coordinator with ``--registry`` — joined workers register, heartbeat
    their live load, and are placed/health-tracked automatically.
    """
    from repro.service.http import serve

    serve(args.workspace, host=args.host, port=args.port,
          max_workers=args.max_workers, role="worker",
          join=args.join, advertise=args.advertise,
          blob_cache=args.blob_cache, blob_cache_limit=args.blob_cache_limit)
    return 0


def _jobs_facade(args):
    """The service to talk to: a workspace (in-process) or a running
    server (HTTP client) — both expose the same method surface.
    ``--token`` authenticates against a tenant-enabled server."""
    if getattr(args, "server", None):
        from repro.service.client import ProFIPyClient

        return ProFIPyClient(args.server,
                             token=getattr(args, "token", None))
    return ProFIPyService(args.workspace)


def _stamp(epoch: float | None) -> str:
    if not epoch:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(epoch))


def _progress_cell(job) -> str:
    """Live shard progress as ``done/total`` (``-`` before execution)."""
    progress = getattr(job, "progress", None)
    if not progress:
        return "-"
    done = progress.get("experiments_done")
    total = progress.get("experiments_total")
    if done is None or total is None:
        return "-"
    return f"{done}/{total}"


def cmd_tenants(args) -> int:
    """Operator view of the configured tenants (quotas + live load)."""
    service = ProFIPyService(args.workspace, tenants=args.tenants)
    if args.tenants_command == "list":
        views = service.tenant_views()
        if not views:
            print(f"no tenants configured in workspace {args.workspace} "
                  "(single-user mode)")
            return 0
        print(f"{'tenant':<16} {'run':>3} {'max':>4} {'queued':>6} "
              f"{'maxq':>5} {'blob used':>12} {'blob max':>12} {'rps':>6}")

        def _cell(value) -> str:
            return "-" if value is None else str(value)

        for view in views:
            print(f"{view['name']:<16} {view['running']:>3} "
                  f"{_cell(view['max_running']):>4} {view['queued']:>6} "
                  f"{_cell(view['max_queued']):>5} "
                  f"{view['blob_bytes_used']:>12} "
                  f"{_cell(view['max_blob_bytes']):>12} "
                  f"{_cell(view['requests_per_second']):>6}")
        return 0
    raise SystemExit(f"unknown tenants command {args.tenants_command!r}")


def cmd_jobs(args) -> int:
    service = _jobs_facade(args)
    if args.jobs_command == "list":
        jobs = service.list_jobs()
        if not jobs:
            where = args.server or f"workspace {args.workspace}"
            print(f"no jobs in {where}")
            return 0
        print(f"{'JOB':<10} {'STATUS':<10} {'PROGRESS':<10} "
              f"{'SUBMITTED':<20} {'STARTED':<20} {'FINISHED':<20} NAME")
        for job in jobs:
            print(f"{job.job_id:<10} {job.status:<10} "
                  f"{_progress_cell(job):<10} "
                  f"{_stamp(job.submitted_at):<20} "
                  f"{_stamp(job.started_at):<20} "
                  f"{_stamp(job.finished_at):<20} {job.name}")
        return 0
    if args.jobs_command == "report":
        print(service.report_text(args.job_id))
        return 0
    if args.jobs_command == "cancel":
        job = service.cancel(args.job_id)
        print(f"{job.job_id}  {job.status}")
        return 0
    if args.jobs_command == "wait":
        try:
            job = service.wait(args.job_id, timeout=args.timeout)
        except TimeoutError as error:
            print(str(error), file=sys.stderr)
            return 1
        print(f"{job.job_id}  {job.status}")
        return 0 if job.status == "completed" else 1
    raise SystemExit(f"unknown jobs command {args.jobs_command!r}")


def _load_cell(view: dict) -> str:
    load = view.get("load")
    if not load:
        return "-"
    capacity = load.get("max_concurrent", view.get("max_concurrent"))
    busy = (load.get("running") or 0) + (load.get("queued") or 0)
    return f"{busy}/{capacity if capacity is not None else '?'}"


def cmd_workers(args) -> int:
    service = _jobs_facade(args)
    if args.workers_command == "list":
        workers = service.list_workers()
        if not workers:
            where = args.server or f"workspace {args.workspace}"
            print(f"no registered workers in {where}")
            return 0
        print(f"{'WORKER':<14} {'STATE':<9} {'LOAD':<7} {'AGE':<9} "
              f"{'MANAGED':<8} URL")
        for view in workers:
            age = view.get("seconds_since_heartbeat")
            print(f"{view['worker_id']:<14} {view['state']:<9} "
                  f"{_load_cell(view):<7} "
                  f"{(f'{age:.1f}s' if age is not None else '-'):<9} "
                  f"{('yes' if view.get('managed') else 'no'):<8} "
                  f"{view['url']}")
        return 0
    raise SystemExit(f"unknown workers command {args.workers_command!r}")


def cmd_stats(args) -> int:
    service = _jobs_facade(args)
    if args.stats_command == "add":
        if getattr(args, "server", None):
            raise SystemExit(
                "stats add registers a local stream file; it only works "
                "against a local workspace (drop --server)")
        for stream in args.streams:
            entry = service.stats_add(stream)
            print(f"indexed {entry['campaign'] or '?'}: {entry['stream']} "
                  f"({entry['experiments']} experiments)")
        return 0
    if args.stats_command == "list":
        rows = service.stats_campaigns()
        if not rows:
            where = (getattr(args, "server", None)
                     or f"workspace {args.workspace}")
            print(f"no campaigns indexed in {where}")
            return 0
        print(f"{'CAMPAIGN':<18} {'SEED':<6} {'EXPERIMENTS':<12} "
              f"{'EARLY-STOP':<10} STREAM")
        for row in rows:
            stopped = "yes" if row.get("stopped_early") else "no"
            print(f"{str(row.get('campaign') or '?'):<18} "
                  f"{str(row.get('seed', '?')):<6} "
                  f"{row.get('experiments', 0):<12} "
                  f"{stopped:<10} {row['stream']}")
        return 0
    if args.stats_command == "aggregate":
        report = service.stats_aggregate(
            campaign=args.campaign, spec=args.spec, file=args.file,
            component=args.component, confidence=args.confidence,
        )
        n = report.get("experiments", 0)
        campaigns = report.get("campaigns", [])
        confidence = report.get("confidence", args.confidence)
        print(f"{len(campaigns)} campaign(s), {n} experiments, "
              f"{100.0 * confidence:.0f}% Wilson intervals")
        modes = report.get("modes", {})
        if not modes:
            print("(no experiments matched the filters)")
            return 0
        print(f"{'FAILURE MODE':<22} {'COUNT':<7} {'ESTIMATE':<10} "
              f"{'INTERVAL':<18} MARGIN")
        for mode in sorted(modes):
            row = modes[mode]
            interval = f"[{row['low']:.3f}, {row['high']:.3f}]"
            print(f"{mode:<22} {row['count']:<7} "
                  f"{row['proportion']:<10.3f} {interval:<18} "
                  f"{row['margin']:.3f}")
        return 0
    raise SystemExit(f"unknown stats command {args.stats_command!r}")


def cmd_regression(args) -> int:
    service = ProFIPyService(args.workspace)
    written = service.generate_regression_tests(args.job_id, args.out)
    if not written:
        print("no failed experiments in this job; nothing to generate",
              file=sys.stderr)
        return 1
    for path in written:
        print(path)
    print(f"\n{len(written)} regression test(s) written to {args.out}",
          file=sys.stderr)
    return 0


# -- casestudy ----------------------------------------------------------------------


def cmd_casestudy(args) -> int:
    campaigns = (list(ALL_CAMPAIGNS) if args.campaign == "all"
                 else [args.campaign])
    workspace = Path(args.workspace or tempfile.mkdtemp(prefix="profipy-cs-"))
    reports = []
    for campaign in campaigns:
        result, report = run_case_study(
            campaign,
            workspace=workspace,
            command_timeout=args.timeout,
            sample=args.sample,
            parallelism=args.parallel,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
        reports.append(report)
        print(f"\n######## {campaign} ########")
        print(report.render())
    if len(reports) > 1:
        print("\n######## overall (§V) ########")
        print(summary_table(reports))
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profipy",
        description="Programmable software fault injection for Python "
                    "(ProFIPy reproduction)",
    )
    parser.add_argument("--workspace", default=".profipy",
                        help="service workspace directory")
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser("models", help="fault model registry")
    models_sub = models.add_subparsers(dest="models_command", required=True)
    models_sub.add_parser("list", help="list available fault models")
    show = models_sub.add_parser("show", help="print a fault model")
    show.add_argument("model")
    show.add_argument("--model-file")
    export = models_sub.add_parser("export", help="export a model to JSON")
    export.add_argument("model")
    export.add_argument("output")
    export.add_argument("--model-file")
    models.set_defaults(func=cmd_models)

    scan = sub.add_parser("scan", help="find injection points")
    scan.add_argument("target", help="file or directory to scan")
    scan.add_argument("--model", default="gswfit")
    scan.add_argument("--model-file")
    scan.add_argument("--jobs", type=int, default=1,
                      help="scan worker processes (warm workers: specs are "
                           "compiled once per worker)")
    scan.add_argument("--cache-dir",
                      help="content-addressed scan cache directory; "
                           "re-scans of unchanged files are free")
    scan.add_argument("--no-incremental", action="store_true",
                      help="ignore the cache's stat/tree manifests and "
                           "re-read + re-hash every file (per-file cache "
                           "entries still apply)")
    scan.set_defaults(func=cmd_scan)

    mutate = sub.add_parser("mutate", help="generate one mutated version")
    mutate.add_argument("target", help="Python file to mutate")
    mutate.add_argument("--model", default="gswfit")
    mutate.add_argument("--model-file")
    mutate.add_argument("--spec", required=True, help="fault type name")
    mutate.add_argument("--ordinal", type=int, default=0)
    mutate.add_argument("--no-trigger", action="store_true")
    mutate.add_argument("--seed", type=int, default=0)
    mutate.add_argument("-o", "--output")
    mutate.set_defaults(func=cmd_mutate)

    campaign = sub.add_parser("campaign", help="run a full campaign")
    campaign.add_argument("target", help="target project directory")
    campaign.add_argument("--name", default="campaign")
    campaign.add_argument("--model", default="gswfit")
    campaign.add_argument("--model-file")
    campaign.add_argument("--run-cmd", action="append", required=True,
                          help="workload command (repeatable)")
    campaign.add_argument("--service-cmd", action="append",
                          help="service command (repeatable)")
    campaign.add_argument("--ready-file")
    campaign.add_argument("--files", action="append",
                          help="injectable file (relative, repeatable)")
    campaign.add_argument("--timeout", type=float, default=60.0)
    campaign.add_argument("--sample", type=int,
                          help="cap the plan to a prefix-stable seeded "
                               "sample of this size (raise it and "
                               "re-run to execute only the delta)")
    campaign.add_argument("--sample-margin", type=float, default=None,
                          metavar="EPS",
                          help="stop early once every failure mode's "
                               "Wilson interval half-width falls below "
                               "EPS (statistical early stopping)")
    campaign.add_argument("--sample-confidence", type=float, default=0.95,
                          help="confidence level for the Wilson "
                               "intervals (default: 0.95)")
    campaign.add_argument("--min-sample", type=int, default=0,
                          help="never stop on margins before this many "
                               "experiments")
    campaign.add_argument("--stratify-by", choices=list(STRATIFY_CHOICES),
                          default=None,
                          help="stratify the seeded sample so rare "
                               "files/components/fault types aren't "
                               "starved")
    campaign.add_argument("--parallel", type=int)
    campaign.add_argument("--backend",
                          choices=["thread", "process", "remote"],
                          default="thread",
                          help="execution backend: one in-process pool "
                               "(thread), per-shard loopback worker "
                               "processes (process), or per-shard remote "
                               "workers over the /v1 API (remote, see "
                               "--worker); "
                               "results are byte-identical")
    campaign.add_argument("--shards", type=int, default=1,
                          help="deterministic shard count for the "
                               "execution phase (independent of results; "
                               "a resumed campaign may change it); with "
                               "--backend process each shard runs at "
                               "least one experiment concurrently, so "
                               "total load is max(--parallel, shards)")
    campaign.add_argument("--worker", action="append", metavar="URL",
                          help="remote worker base URL (repeatable; a "
                               "'profipy worker' instance); shards are "
                               "placed by least load and fail over to "
                               "another worker on connection loss")
    campaign.add_argument("--registry", metavar="URL", default=None,
                          help="coordinator URL whose /v1/workers "
                               "registry supplies the remote-backend "
                               "fleet (workers that ran with --join); "
                               "may be combined with --worker pins")
    campaign.add_argument("--scan-jobs", type=int, default=None,
                          help="worker processes for the scan phase "
                               "(default: in-process indexed scan)")
    campaign.add_argument("--scan-cache", default=None,
                          help="persistent scan-cache directory for "
                               "repeated campaigns over unchanged trees")
    campaign.add_argument("--no-incremental-scan", action="store_true",
                          help="disable the incremental (stat/tree "
                               "manifest) scan fast path")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--no-coverage", action="store_true")
    campaign.add_argument("--no-trigger", action="store_true")
    campaign.add_argument("--keep-artifacts", action="store_true",
                          help="keep the campaign workspace (per-experiment "
                               "JSON artifacts, result stream); its path is "
                               "printed after the run")
    campaign.add_argument("--no-resume", action="store_true",
                          help="re-run every experiment even when the "
                               "workspace already holds a result stream")
    campaign.add_argument("--resume-from", metavar="JOB_ID",
                          help="resume a killed campaign job: experiments "
                               "already recorded in that job's stream are "
                               "not re-run")
    campaign.set_defaults(func=cmd_campaign)

    serve = sub.add_parser(
        "serve", help="run the versioned HTTP service API (/v1)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--max-workers", type=int, default=None,
                       help="concurrent campaign jobs (bounded scheduler)")
    serve.add_argument("--tenants", metavar="FILE", default=None,
                       help="tenants.json with per-tenant bearer tokens "
                            "and quotas; turns on authentication, "
                            "namespaces, fair-share scheduling, and rate "
                            "limits (default: <workspace>/tenants.json "
                            "when present, else open single-user mode)")
    serve.set_defaults(func=cmd_serve)

    tenants = sub.add_parser(
        "tenants",
        help="inspect configured tenants (quotas and live queue load)",
    )
    tenants.add_argument("--tenants", metavar="FILE", default=None,
                         help="tenants.json to read (default: "
                              "<workspace>/tenants.json)")
    tenants_sub = tenants.add_subparsers(dest="tenants_command",
                                         required=True)
    tenants_sub.add_parser(
        "list",
        help="list tenants (running/queued jobs, quotas; tokens "
             "are never printed)",
    )
    tenants.set_defaults(func=cmd_tenants)

    worker = sub.add_parser(
        "worker",
        help="serve the remote-backend worker role (accepts shard "
             "payloads on POST /v1/shards)",
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=8081)
    worker.add_argument("--max-workers", type=int, default=None,
                        help="concurrent campaign jobs, should this "
                             "worker also serve campaigns")
    worker.add_argument("--join", metavar="URL", default=None,
                        help="register with this coordinator's worker "
                             "registry and heartbeat a lease (campaigns "
                             "pointed at the coordinator with --registry "
                             "then place shards here automatically)")
    worker.add_argument("--advertise", metavar="URL", default=None,
                        help="base URL to register under (default: the "
                             "listen address; set when the coordinator "
                             "must reach this worker through NAT or a "
                             "different interface)")
    worker.add_argument("--blob-cache", metavar="DIR", default=None,
                        help="content-addressed blob cache directory for "
                             "shipped target images (default: "
                             "<workspace>/blobs; share it between worker "
                             "instances on one host to pool downloads)")
    worker.add_argument("--blob-cache-limit", metavar="BYTES", type=int,
                        default=None,
                        help="evict least-recently-used blobs once the "
                             "cache exceeds this many bytes (default: "
                             "unbounded)")
    worker.set_defaults(func=cmd_worker)

    jobs = sub.add_parser("jobs", help="inspect campaign jobs")
    jobs.add_argument("--server", metavar="URL",
                      help="talk to a running 'profipy serve' instance "
                           "instead of the local workspace")
    jobs.add_argument("--token", metavar="TOKEN", default=None,
                      help="bearer token for a tenant-enabled server")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    jobs_sub.add_parser("list",
                        help="list jobs (id, status, timestamps, name)")
    jobs_report = jobs_sub.add_parser("report", help="print a job report")
    jobs_report.add_argument("job_id")
    jobs_cancel = jobs_sub.add_parser(
        "cancel", help="cancel a queued or running job"
    )
    jobs_cancel.add_argument("job_id")
    jobs_wait = jobs_sub.add_parser(
        "wait", help="block until a job reaches a terminal state"
    )
    jobs_wait.add_argument("job_id")
    jobs_wait.add_argument("--timeout", type=float, default=None)
    jobs.set_defaults(func=cmd_jobs)

    workers = sub.add_parser(
        "workers", help="inspect the registered worker fleet"
    )
    workers.add_argument("--server", metavar="URL",
                         help="talk to a running coordinator instead of "
                              "the local workspace")
    workers.add_argument("--token", metavar="TOKEN", default=None,
                         help="bearer token for a tenant-enabled server")
    workers_sub = workers.add_subparsers(dest="workers_command",
                                         required=True)
    workers_sub.add_parser(
        "list",
        help="list registered workers (id, lease state, live load, "
             "heartbeat age, URL)",
    )
    workers.set_defaults(func=cmd_workers)

    stats = sub.add_parser(
        "stats",
        help="cross-campaign statistical result store: per-failure-mode "
             "Wilson estimates over stored experiment streams",
    )
    stats.add_argument("--workspace", default=".profipy")
    stats.add_argument("--server", metavar="URL",
                       help="talk to a running service instead of the "
                            "local workspace")
    stats.add_argument("--token", metavar="TOKEN", default=None,
                       help="bearer token for a tenant-enabled server")
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)
    stats_sub.add_parser(
        "list",
        help="list indexed campaigns (name, seed, experiments, stream)",
    )
    stats_add = stats_sub.add_parser(
        "add",
        help="index experiment stream files (completed service jobs "
             "register automatically)",
    )
    stats_add.add_argument("streams", nargs="+", metavar="STREAM",
                           help="experiments.jsonl path")
    stats_agg = stats_sub.add_parser(
        "aggregate",
        help="aggregate per-mode counts and Wilson estimates across "
             "stored campaigns",
    )
    stats_agg.add_argument("--campaign", default=None,
                           help="only campaigns with this name")
    stats_agg.add_argument("--spec", default=None,
                           help="only points injected by this spec")
    stats_agg.add_argument("--file", default=None,
                           help="only points in this file")
    stats_agg.add_argument("--component", default=None,
                           help="only points in this component")
    stats_agg.add_argument("--confidence", type=float, default=0.95)
    stats.set_defaults(func=cmd_stats)

    regression = sub.add_parser(
        "regression",
        help="generate regression tests from a job's failed experiments",
    )
    regression.add_argument("job_id")
    regression.add_argument("--out", default="regression_tests")
    regression.set_defaults(func=cmd_regression)

    casestudy = sub.add_parser("casestudy",
                               help="reproduce the §V case study")
    casestudy.add_argument("--campaign", default="all",
                           choices=list(ALL_CAMPAIGNS) + ["all"])
    casestudy.add_argument("--sample", type=int)
    casestudy.add_argument("--timeout", type=float, default=45.0)
    casestudy.add_argument("--parallel", type=int)
    casestudy.set_defaults(func=cmd_casestudy)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
