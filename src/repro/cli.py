"""Command-line interface.

Four subcommands cover the library's day-to-day uses:

* ``generate`` — write a synthetic tensor (uniform random, planted-factor,
  or a Table III dataset stand-in) to a coordinate text file;
* ``info`` — print a tensor file's shape, nonzero count, and density;
* ``factorize`` — run DBTF / BCP_ALS / Walk'n'Merge / Boolean Tucker on a
  tensor file, print the summary, and optionally save the factors;
* ``jobs`` — the multi-tenant service over a file spool: ``submit`` jobs
  without a server, ``serve`` them under fair sharing with per-job
  checkpoints (killing ``serve`` loses nothing), ``status``/``cancel``/
  ``result`` at any time;
* ``experiment`` — regenerate one of the paper's tables or figures.

Examples::

    python -m repro generate --kind planted --shape 64 64 64 --rank 8 \
        --out tensor.tns
    python -m repro factorize tensor.tns --method dbtf --rank 8 \
        --factors-out factors/
    python -m repro experiment fig1a
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .distengine import BACKEND_NAMES, DEFAULT_CLUSTER

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Boolean tensor factorization (DBTF reproduction, ICDE 2017)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="write a synthetic Boolean tensor to a file"
    )
    generate.add_argument(
        "--kind", choices=["random", "planted", "dataset"], default="random"
    )
    generate.add_argument(
        "--shape", type=int, nargs=3, default=[64, 64, 64], metavar=("I", "J", "K")
    )
    generate.add_argument("--density", type=float, default=0.01,
                          help="density for --kind random")
    generate.add_argument("--rank", type=int, default=10,
                          help="planted rank for --kind planted")
    generate.add_argument("--factor-density", type=float, default=0.1)
    generate.add_argument("--additive-noise", type=float, default=0.0)
    generate.add_argument("--destructive-noise", type=float, default=0.0)
    generate.add_argument("--dataset", default="facebook",
                          help="Table III stand-in name for --kind dataset")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output .tns path")

    info = subparsers.add_parser("info", help="print tensor statistics")
    info.add_argument("tensor", help="input .tns path")

    factorize = subparsers.add_parser(
        "factorize", help="factorize a Boolean tensor file"
    )
    factorize.add_argument("tensor", help="input .tns path")
    factorize.add_argument(
        "--method",
        choices=["dbtf", "bcp-als", "walk-n-merge", "tucker", "nway-cp"],
        default="dbtf",
    )
    factorize.add_argument("--rank", type=int, default=10)
    factorize.add_argument("--core-shape", type=int, nargs=3, default=None,
                           metavar=("R1", "R2", "R3"),
                           help="core sizes for --method tucker (default rank^3)")
    factorize.add_argument("--max-iterations", type=int, default=10)
    factorize.add_argument("--initial-sets", type=int, default=1,
                           help="DBTF's L parameter")
    factorize.add_argument("--partitions", type=int, default=None,
                           help="DBTF's N parameter")
    factorize.add_argument("--density-threshold", type=float, default=0.9,
                           help="Walk'n'Merge's t parameter")
    factorize.add_argument("--backend", choices=BACKEND_NAMES,
                           default="serial",
                           help="host-side stage executor for dbtf/nway-cp "
                                "(results are identical; a parallel backend "
                                "uses more cores)")
    factorize.add_argument("--workers", type=int, default=None,
                           help="worker-pool size for --backend process "
                                "(default: all cores)")
    factorize.add_argument("--seed", type=int, default=0)
    factorize.add_argument("--factors-out", default=None,
                           help="directory for A.mtx/B.mtx/C.mtx")
    factorize.add_argument("--trace", default=None, metavar="PATH",
                           help="write a structured span trace of the run "
                                "(dbtf/nway-cp only)")
    factorize.add_argument("--trace-format", choices=["jsonl", "chrome"],
                           default="jsonl",
                           help="trace file format: one JSON object per "
                                "span, or the Chrome trace-event format "
                                "for chrome://tracing / Perfetto")
    factorize.add_argument("--metrics", action="store_true",
                           help="print the stage/transfer/metrics summary "
                                "after the run (dbtf/nway-cp only)")
    factorize.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                           help="snapshot the decomposition state into DIR "
                                "at iteration boundaries "
                                "(dbtf/tucker/nway-cp only)")
    factorize.add_argument("--checkpoint-every", type=int, default=1,
                           metavar="K",
                           help="snapshot every K iterations (default 1)")
    factorize.add_argument("--checkpoint-keep-last", type=int, default=2,
                           metavar="N",
                           help="newest snapshots retained per run "
                                "(default 2)")
    factorize.add_argument("--resume", action="store_true",
                           help="resume from the newest intact snapshot in "
                                "--checkpoint-dir before iterating")
    factorize.add_argument("--memory-budget", default=None, metavar="SIZE",
                           help="byte ceiling for driver-resident partition "
                                "caches, e.g. 64M or 2G (dbtf only); caches "
                                "beyond it spill to disk and page back in, "
                                "results are bit-identical")
    factorize.add_argument("--spill-dir", default=None, metavar="DIR",
                           help="parent directory for --memory-budget spill "
                                "files (default: system temp dir)")
    factorize.add_argument("--delta", action="append", default=[],
                           metavar="PATH",
                           help="delta file (see repro.tensor.save_delta) to "
                                "apply after the initial factorization; "
                                "repeatable, applied in order (dbtf only). "
                                "Runs the incremental epoch path: cached "
                                "unfoldings are patched in place and the "
                                "solver warm-starts per epoch, re-sweeping "
                                "only delta-dirtied columns")

    jobs = subparsers.add_parser(
        "jobs", help="multi-tenant factorization jobs over a file spool"
    )
    jobs.add_argument("--spool", required=True, metavar="DIR",
                      help="job spool directory (created on first use); "
                           "specs, statuses, results, and checkpoints all "
                           "live under it")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    jobs_submit = jobs_sub.add_parser(
        "submit", help="spool one decomposition job"
    )
    jobs_submit.add_argument("tensor", help="input .tns path")
    jobs_submit.add_argument("--tenant", required=True,
                             help="tenant the job is billed to")
    jobs_submit.add_argument("--method",
                             choices=["dbtf", "nway-cp", "tucker"],
                             default="dbtf")
    jobs_submit.add_argument("--rank", type=int, default=10)
    jobs_submit.add_argument("--core-shape", type=int, nargs=3, default=None,
                             metavar=("R1", "R2", "R3"))
    jobs_submit.add_argument("--max-iterations", type=int, default=10)
    jobs_submit.add_argument("--initial-sets", type=int, default=1)
    jobs_submit.add_argument("--seed", type=int, default=0)
    jobs_submit.add_argument("--priority", type=int, default=0,
                             help="larger runs earlier within the tenant "
                                  "and may preempt lower-priority jobs")

    jobs_status = jobs_sub.add_parser(
        "status", help="print job statuses from the spool"
    )
    jobs_status.add_argument("job_id", nargs="?", default=None,
                             help="one job id (default: every job)")

    jobs_cancel = jobs_sub.add_parser(
        "cancel", help="mark a job cancelled (the server honors it between "
                       "iterations; checkpoints are kept)"
    )
    jobs_cancel.add_argument("job_id")

    jobs_result = jobs_sub.add_parser(
        "result", help="print a finished job's result summary"
    )
    jobs_result.add_argument("job_id")

    jobs_serve = jobs_sub.add_parser(
        "serve", help="run spooled jobs to completion (resumable: killing "
                      "and re-running continues from checkpoints)"
    )
    jobs_serve.add_argument("--backend", choices=BACKEND_NAMES,
                            default="serial")
    jobs_serve.add_argument("--workers", type=int, default=None)
    jobs_serve.add_argument("--max-live", type=int, default=4,
                            help="jobs holding runtimes concurrently")
    jobs_serve.add_argument("--checkpoint-every", type=int, default=1)
    jobs_serve.add_argument("--keep-last", type=int, default=2)
    jobs_serve.add_argument("--weight", action="append", default=[],
                            metavar="TENANT=W",
                            help="fair-share weight override (repeatable)")
    jobs_serve.add_argument("--max-steps", type=int, default=None,
                            help="stop after N scheduler quanta even if "
                                 "jobs remain (they resume on the next "
                                 "serve)")
    jobs_serve.add_argument("--metrics-out", default=None, metavar="PATH",
                            help="write per-tenant service metrics as JSONL")
    jobs_serve.add_argument("--memory-budget", default=None, metavar="SIZE",
                            help="per-job byte ceiling for driver-resident "
                                 "partition caches, e.g. 64M; spill files "
                                 "live under each job's checkpoint root and "
                                 "are removed when the job finishes")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate a paper table or figure"
    )
    experiment.add_argument(
        "name",
        choices=[
            "fig1a", "fig1b", "fig1c", "fig6", "fig7",
            "error-density", "error-rank", "error-additive",
            "error-destructive", "table1", "table3",
            "lemma-traffic-iterations", "lemma-traffic-partitions",
        ],
    )
    experiment.add_argument("--timeout", type=float, default=30.0,
                            help="per-run budget in seconds")
    experiment.add_argument("--chart", action="store_true",
                            help="also render the series as a bar chart")
    return parser


def _command_generate(args: argparse.Namespace) -> int:
    from .datasets import load_dataset
    from .tensor import planted_tensor, random_tensor, save_tensor

    rng = np.random.default_rng(args.seed)
    shape = tuple(args.shape)
    if args.kind == "random":
        tensor = random_tensor(shape, args.density, rng)
    elif args.kind == "planted":
        tensor, _ = planted_tensor(
            shape,
            rank=args.rank,
            factor_density=args.factor_density,
            rng=rng,
            additive_noise=args.additive_noise,
            destructive_noise=args.destructive_noise,
        )
    else:
        tensor = load_dataset(args.dataset, seed=args.seed)
    save_tensor(tensor, args.out)
    print(f"wrote {tensor} to {args.out}")
    return 0


def _load_tensor_or_report(path: str):
    """``load_tensor(path)``, or ``None`` after printing why it failed.

    A missing file or a malformed one (the ``path:line`` message of
    :func:`~repro.tensor.load_tensor`) is a usage error, not a traceback.
    """
    from .tensor import load_tensor

    try:
        return load_tensor(path)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return None


def _command_info(args: argparse.Namespace) -> int:
    tensor = _load_tensor_or_report(args.tensor)
    if tensor is None:
        return 2
    print(f"shape   : {'x'.join(str(s) for s in tensor.shape)}")
    print(f"nonzeros: {tensor.nnz}")
    print(f"density : {tensor.density():.6f}")
    return 0


def _command_factorize(args: argparse.Namespace) -> int:
    from .tensor import save_factors

    observing = args.trace is not None or args.metrics
    if observing and args.method not in ("dbtf", "nway-cp"):
        print(
            f"--trace/--metrics are only supported for dbtf and nway-cp, "
            f"not {args.method}",
            file=sys.stderr,
        )
        return 2
    if args.method not in ("dbtf", "nway-cp") and (
        args.backend != "serial" or args.workers is not None
    ):
        print(
            f"--backend/--workers are only supported for dbtf and nway-cp, "
            f"not {args.method}",
            file=sys.stderr,
        )
        return 2
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    checkpoint = None
    if args.checkpoint_dir is not None:
        if args.method not in ("dbtf", "tucker", "nway-cp"):
            print(
                f"--checkpoint-dir is only supported for dbtf, tucker, and "
                f"nway-cp, not {args.method}",
                file=sys.stderr,
            )
            return 2
        from .resilience import CheckpointConfig

        checkpoint = CheckpointConfig(
            directory=args.checkpoint_dir,
            every=args.checkpoint_every,
            keep_last=args.checkpoint_keep_last,
            resume=args.resume,
        )

    memory_budget = None
    if args.memory_budget is not None:
        if args.method != "dbtf":
            print(
                f"--memory-budget is only supported for dbtf, "
                f"not {args.method}",
                file=sys.stderr,
            )
            return 2
        from .storage import parse_memory_size

        try:
            memory_budget = parse_memory_size(args.memory_budget)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.spill_dir is not None and memory_budget is None:
        print("--spill-dir requires --memory-budget", file=sys.stderr)
        return 2

    deltas = []
    if args.delta:
        if args.method != "dbtf":
            print(
                f"--delta is only supported for dbtf, not {args.method}",
                file=sys.stderr,
            )
            return 2
        from .tensor import load_delta

        try:
            deltas = [load_delta(path) for path in args.delta]
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2

    tensor = _load_tensor_or_report(args.tensor)
    if tensor is None:
        return 2
    tracer = metrics = None
    if args.method == "dbtf":
        from .core import DbtfConfig
        from .distengine import ClusterConfig

        config = DbtfConfig(
            rank=args.rank,
            seed=args.seed,
            max_iterations=args.max_iterations,
            n_initial_sets=args.initial_sets,
            n_partitions=args.partitions,
            cluster=ClusterConfig(
                backend=args.backend,
                n_workers=args.workers,
                tracing=observing,
                memory_budget=memory_budget,
                spill_dir=args.spill_dir,
            ),
            # A session checkpoints per epoch under its own root instead.
            checkpoint=None if deltas else checkpoint,
        )
    if deltas:
        from .incremental import FactorizationSession

        with FactorizationSession(
            tensor,
            config,
            checkpoint_root=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            keep_last=args.checkpoint_keep_last,
        ) as session:
            epochs = [session.factorize()]
            epochs.extend(session.advance(delta) for delta in deltas)
            if observing:
                tracer = session.runtime.tracer
                metrics = session.runtime.metrics
            result = epochs[-1].result
        print(f"method         : DBTF incremental ({len(epochs)} epochs, "
              f"{args.backend} backend)")
        print(f"{'epoch':>5} {'changes':>8} {'dirty':>6} {'swept':>6} "
              f"{'skipped':>8}  error")
        for epoch in epochs:
            print(f"{epoch.epoch:>5} {epoch.n_changes:>8} "
                  f"{sum(epoch.dirty_columns):>6} {epoch.columns_swept:>6} "
                  f"{epoch.columns_skipped:>8}  {epoch.error}")
    elif args.method == "dbtf":
        from .core import dbtf
        from .distengine import SimulatedRuntime

        with SimulatedRuntime(config.cluster) as runtime:
            result = dbtf(tensor, config=config, runtime=runtime)
            if observing:
                tracer, metrics = runtime.tracer, runtime.metrics
        print(f"method         : DBTF (simulated {result.report.n_machines} machines, "
              f"{args.backend} backend)")
        print(f"simulated time : {result.report.simulated_time:.2f} s")
        if memory_budget is not None:
            print(f"spill I/O      : {result.report.spill_bytes} bytes "
                  f"(budget {memory_budget} bytes)")
    elif args.method == "bcp-als":
        from .baselines import bcp_als

        result = bcp_als(tensor, rank=args.rank, max_iterations=args.max_iterations)
        print("method         : BCP_ALS")
    elif args.method == "walk-n-merge":
        from .baselines import WalkNMergeConfig, walk_n_merge

        result = walk_n_merge(
            tensor,
            rank=args.rank,
            config=WalkNMergeConfig(
                density_threshold=args.density_threshold, seed=args.seed
            ),
        )
        print(f"method         : Walk'n'Merge ({result.details['n_blocks']} blocks)")
    elif args.method == "nway-cp":
        from .nway import NwayCpConfig, cp_nway

        if observing:
            from .observability import MetricsRegistry, Tracer

            tracer = Tracer() if args.trace is not None else None
            metrics = MetricsRegistry()
        result = cp_nway(
            tensor,
            config=NwayCpConfig(
                rank=args.rank,
                max_iterations=args.max_iterations,
                n_initial_sets=args.initial_sets,
                seed=args.seed,
                cluster=DEFAULT_CLUSTER.with_backend(args.backend, args.workers),
                checkpoint=checkpoint,
            ),
            tracer=tracer,
            metrics=metrics,
        )
        print(f"method         : N-way Boolean CP ({tensor.ndim} modes)")
    else:
        from .tucker import BooleanTuckerConfig, boolean_tucker

        core_shape = tuple(args.core_shape) if args.core_shape else (args.rank,) * 3
        result = boolean_tucker(
            tensor,
            config=BooleanTuckerConfig(
                core_shape=core_shape,
                max_iterations=args.max_iterations,
                n_initial_sets=args.initial_sets,
                seed=args.seed,
                checkpoint=checkpoint,
            ),
        )
        print(f"method         : Boolean Tucker (core {core_shape}, "
              f"{result.core.nnz} core nonzeros)")

    print(f"error          : {result.error}")
    print(f"relative error : {result.relative_error:.4f}")

    if args.trace is not None and tracer is not None:
        from .observability import write_chrome_trace, write_jsonl

        if args.trace_format == "chrome":
            write_chrome_trace(tracer, args.trace)
        else:
            write_jsonl(tracer, args.trace)
        print(f"trace written to {args.trace} ({len(tracer)} spans, "
              f"{args.trace_format})")
    if args.metrics:
        from .observability import render_report

        print()
        print(render_report(tracer, metrics))

    if args.factors_out:
        if len(result.factors) == 3:
            save_factors(result.factors, args.factors_out)
        else:
            import os

            from .tensor import save_matrix

            os.makedirs(args.factors_out, exist_ok=True)
            for mode, factor in enumerate(result.factors):
                save_matrix(
                    factor, os.path.join(args.factors_out, f"factor_{mode}.mtx")
                )
        print(f"factors written to {args.factors_out}/")
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    from .service import JobStore

    store = JobStore(args.spool)
    handlers = {
        "submit": _jobs_submit,
        "status": _jobs_status,
        "cancel": _jobs_cancel,
        "result": _jobs_result,
        "serve": _jobs_serve,
    }
    return handlers[args.jobs_command](store, args)


def _jobs_submit(store, args: argparse.Namespace) -> int:
    from .service import JobSpec

    tensor = _load_tensor_or_report(args.tensor)
    if tensor is None:
        return 2
    spec = JobSpec(
        tenant=args.tenant,
        tensor=tensor,
        method=args.method,
        rank=args.rank,
        core_shape=tuple(args.core_shape) if args.core_shape else None,
        max_iterations=args.max_iterations,
        n_initial_sets=args.initial_sets,
        seed=args.seed,
        priority=args.priority,
    )
    job_id = store.submit(spec, args.tensor)
    print(job_id)
    return 0


def _jobs_status(store, args: argparse.Namespace) -> int:
    job_ids = [args.job_id] if args.job_id else store.job_ids()
    if not job_ids:
        print("spool is empty")
        return 0
    print(f"{'job':<22} {'tenant':<12} {'method':<8} {'state':<10} "
          f"{'iters':>5}  error")
    for job_id in job_ids:
        status = store.read_status(job_id)
        if status is None:
            spec = store.read_spec(job_id) or {}
            state = "cancelled" if store.is_cancelled(job_id) else "spooled"
            status = {"tenant": spec.get("tenant", "?"),
                      "method": spec.get("method", "?"), "state": state,
                      "iterations": 0, "error": None}
        error = status["error"] if status["error"] is not None else "-"
        print(f"{job_id:<22} {status['tenant']:<12} {status['method']:<8} "
              f"{status['state']:<10} {status['iterations']:>5}  {error}")
    return 0


def _jobs_cancel(store, args: argparse.Namespace) -> int:
    if store.read_status(args.job_id) is None and args.job_id not in store.job_ids():
        print(f"unknown job {args.job_id}", file=sys.stderr)
        return 2
    store.mark_cancelled(args.job_id)
    print(f"{args.job_id} marked cancelled")
    return 0


def _jobs_result(store, args: argparse.Namespace) -> int:
    import json

    summary = store.read_result(args.job_id)
    if summary is None:
        status = store.read_status(args.job_id)
        state = status["state"] if status else "unknown"
        print(f"no result for {args.job_id} (state: {state})", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _jobs_serve(store, args: argparse.Namespace) -> int:
    from .service import FactorizationService, JobState, ServiceConfig, TenantQuota

    quotas = {}
    for override in args.weight:
        tenant, _, weight = override.partition("=")
        if not tenant or not weight:
            print(f"--weight expects TENANT=W, got {override!r}", file=sys.stderr)
            return 2
        quotas[tenant] = TenantQuota(weight=float(weight))

    cluster = DEFAULT_CLUSTER.with_backend(args.backend, args.workers)
    if args.memory_budget is not None:
        from .storage import parse_memory_size

        try:
            cluster = cluster.with_memory_budget(
                parse_memory_size(args.memory_budget)
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    pending = store.pending_ids()
    if not pending:
        print("nothing to do: no pending jobs in the spool")
        return 0
    config = ServiceConfig(
        cluster=cluster,
        checkpoint_root=store.checkpoint_root,
        checkpoint_every=args.checkpoint_every,
        keep_last=args.keep_last,
        max_live_jobs=args.max_live,
        quotas=quotas,
    )
    written: dict[str, tuple] = {}
    with FactorizationService(config) as service:
        for job_id in pending:
            service.submit(store.load_spec(job_id))
        print(f"serving {len(pending)} jobs ({args.backend} backend)")
        steps = 0
        while True:
            for job_id in list(service.jobs):
                job_status = service.status(job_id)
                if not job_status.state.terminal and store.is_cancelled(job_id):
                    service.cancel(job_id)
            if not service.step():
                break
            steps += 1
            _spool_progress(store, service, written)
            if args.max_steps is not None and steps >= args.max_steps:
                print(f"stopping after {steps} steps; unfinished jobs "
                      f"resume on the next serve")
                break
        _spool_progress(store, service, written)
        for job_id, job in service.jobs.items():
            if job.state is JobState.DONE and store.read_result(job_id) is None:
                store.write_result(job_id, _result_summary(job))
        if args.metrics_out is not None:
            from .observability import write_metrics_jsonl

            write_metrics_jsonl(service.metrics, args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
        board = service.dashboard()
    for tenant in sorted(board):
        row = board[tenant]
        print(f"{tenant}: done={row['done']} pending={row['pending']} "
              f"failed={row['failed']} cancelled={row['cancelled']} "
              f"iterations={row['iterations']}")
    return 0


def _spool_progress(store, service, written: dict) -> None:
    """Write each job's status to the spool when it changed."""
    for job_id in service.jobs:
        status = service.status(job_id)
        key = (status.state, status.iterations)
        if written.get(job_id) != key:
            store.write_status(status)
            written[job_id] = key


def _result_summary(job) -> dict:
    result = job.result
    summary = {
        "job_id": job.job_id,
        "tenant": job.tenant,
        "method": job.spec.method,
        "error": int(result.error),
        "relative_error": float(result.relative_error),
        "converged": bool(result.converged),
        "iterations": job.iterations,
    }
    if hasattr(result, "errors_per_iteration"):
        summary["errors_per_iteration"] = [
            int(e) for e in result.errors_per_iteration
        ]
    return summary


def _command_experiment(args: argparse.Namespace) -> int:
    from . import experiments

    runners = {
        "fig1a": lambda: experiments.run_dimensionality(
            exponents=(4, 5, 6, 7), timeout_sec=args.timeout
        ),
        "fig1b": lambda: experiments.run_density(timeout_sec=args.timeout),
        "fig1c": lambda: experiments.run_rank(timeout_sec=args.timeout),
        "fig6": lambda: experiments.run_realworld(timeout_sec=args.timeout),
        "fig7": lambda: experiments.run_machine_scalability(exponent=6),
        "error-density": lambda: experiments.run_factor_density_sweep(
            timeout_sec=args.timeout
        ),
        "error-rank": lambda: experiments.run_rank_sweep(timeout_sec=args.timeout),
        "error-additive": lambda: experiments.run_additive_noise_sweep(
            timeout_sec=args.timeout
        ),
        "error-destructive": lambda: experiments.run_destructive_noise_sweep(
            timeout_sec=args.timeout
        ),
        "table1": lambda: experiments.table1(timeout_sec=args.timeout),
        "table3": experiments.table3,
        "lemma-traffic-iterations": experiments.run_traffic_vs_iterations,
        "lemma-traffic-partitions": experiments.run_traffic_vs_partitions,
    }
    table = runners[args.name]()
    print(table.to_text())
    if args.chart:
        from .experiments import ascii_bar_chart

        print()
        print(ascii_bar_chart(table))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "info": _command_info,
        "factorize": _command_factorize,
        "jobs": _command_jobs,
        "experiment": _command_experiment,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
