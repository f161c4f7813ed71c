"""Command-line synthetic-data generator (the Python equivalent of Section 5's tool).

The paper ships a C++ tool that takes a CSV dataset, metadata files and a
config file, and emits a synthetic dataset.  This module provides the same
workflow:

    # write a demo input dataset + metadata to ./demo/
    python -m repro.cli sample-data --output-dir demo --records 40000

    # generate 1000 plausibly-deniable synthetic records from it
    python -m repro.cli generate \
        --input demo/acs.csv --metadata demo/metadata.json \
        --config demo/config.json --output demo/synthetic.csv --records 1000

    # or serve the fitted model to many tenants over HTTP (see the README's
    # "Serving synthetics" section for the API)
    python -m repro.cli serve \
        --input demo/acs.csv --metadata demo/metadata.json \
        --config demo/config.json --port 8765

The config file is a JSON object with the privacy-test parameters (``k``,
``gamma``, ``epsilon0``, ``max_plausible``, ``max_check_plausible``), the
generative-model parameters (``omega``, ``total_epsilon``), the data-split
fractions, the synthesis ``batch_size`` (at most how many candidates
Mechanism 1 pushes through the vectorized batch path at once, 8,192 by
default; 1 is a batch of one; a batch stays inside its 2,048-attempt chunk
in-process, and on a worker pool it bounds how many consecutive chunks a
worker computes as one batch) and the synthesis-engine knobs (``workers``,
``chunk_size`` — see the README's "Scaling out" section); any omitted key
falls back to the defaults below.  Every release runs through the same engine and every
attempt draws from its own counter-addressed words, so ``workers``,
``batch_size`` and ``chunk_size`` only change how fast the rows come out,
never which rows.

Scaling ``k``: the privacy test releases a candidate only if at least ``k``
seed records could plausibly have generated it, so the workable ``k`` grows
with the seed-split size.  The paper uses k = 50 against ~1.2M seed records;
at the demo scale of this CLI (tens of thousands of records) k = 50 rejects
essentially every candidate, so the default here is k = 10.  Raise it toward
the paper's setting as the input dataset grows (roughly: keep
``k / seed_records`` at or below ~1e-3).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.config import GenerationConfig
from repro.core.pipeline import SynthesisPipeline
from repro.core.run_store import RunStore
from repro.datasets.acs import load_acs
from repro.datasets.dataset import Dataset
from repro.datasets.metadata import read_metadata, write_metadata
from repro.generative.builder import GenerativeModelSpec
from repro.generative.structure import StructureLearningConfig
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

__all__ = ["build_config", "main"]

_DEFAULT_CONFIG = {
    # The paper's k=50 assumes ~1.2M seed records; at demo scale it yields a
    # zero pass rate (nothing released).  See "Scaling k" in the module
    # docstring.
    "k": 10,
    "gamma": 4.0,
    "epsilon0": 1.0,
    "omega": 9,
    "total_epsilon": 1.0,
    "seed_fraction": 0.55,
    "structure_fraction": 0.175,
    "parameter_fraction": 0.175,
    "max_plausible": None,
    "max_check_plausible": None,
    "max_parent_cost": 300,
    "max_table_cells": None,
    "batch_size": 8192,
    # Worker processes of the synthesis engine: 1 runs it in-process, more
    # start a pool (see --workers).  The rows do not depend on it.
    "workers": 1,
    "chunk_size": 2048,
    # Crash re-executions allowed per engine chunk before a job fails
    # (supervised worker pools only; retries are bit-identical).
    "max_chunk_retries": 2,
    "rng_seed": 0,
}


def build_config(options: dict, num_attributes: int) -> GenerationConfig:
    """Translate a config-file dictionary into a :class:`GenerationConfig`."""
    unknown = set(options) - set(_DEFAULT_CONFIG)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = {**_DEFAULT_CONFIG, **options}
    omega = merged["omega"]
    if isinstance(omega, list):
        omega = tuple(int(value) for value in omega)
    privacy = PlausibleDeniabilityParams(
        k=int(merged["k"]),
        gamma=float(merged["gamma"]),
        epsilon0=float(merged["epsilon0"]) if merged["epsilon0"] is not None else None,
        max_plausible=merged["max_plausible"],
        max_check_plausible=merged["max_check_plausible"],
    )
    structure = StructureLearningConfig(
        max_parent_cost=int(merged["max_parent_cost"]),
        max_table_cells=merged["max_table_cells"],
    )
    if merged["total_epsilon"] is None:
        model = GenerativeModelSpec(
            omega=omega, epsilon_structure=None, epsilon_parameters=None, structure=structure
        )
    else:
        model = GenerativeModelSpec.with_total_epsilon(
            float(merged["total_epsilon"]),
            num_attributes=num_attributes,
            omega=omega,
            structure=structure,
        )
    for key, hint in (("batch_size", "8192"), ("workers", "1")):
        if merged[key] is None:
            raise ValueError(
                f"config key {key!r} must be a positive integer, not null "
                f"(use {hint}, the default)"
            )
    return GenerationConfig(
        privacy=privacy,
        model=model,
        seed_fraction=float(merged["seed_fraction"]),
        structure_fraction=float(merged["structure_fraction"]),
        parameter_fraction=float(merged["parameter_fraction"]),
        batch_size=int(merged["batch_size"]),
        num_workers=int(merged["workers"]),
        chunk_size=int(merged["chunk_size"]),
        max_chunk_retries=int(merged["max_chunk_retries"]),
    )


def _command_sample_data(args: argparse.Namespace) -> int:
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_acs(num_records=args.records, seed=args.seed)
    dataset.to_csv(output_dir / "acs.csv")
    write_metadata(dataset.schema, output_dir / "metadata.json")
    (output_dir / "config.json").write_text(json.dumps(_DEFAULT_CONFIG, indent=2) + "\n")
    print(f"wrote {len(dataset)} records, metadata and a default config to {output_dir}/")
    return 0


def _release_warning(
    num_released: int, num_requested: int, k: int, num_seed_records: int
) -> str | None:
    """A diagnostic for runs whose privacy test rejected every candidate.

    Returns ``None`` when at least one record was released.
    """
    if num_released > 0 or num_requested == 0:
        return None
    return (
        f"warning: the privacy test released 0 of the {num_requested} requested "
        f"records.  The plausible-seeds threshold k={k} is likely too strict for "
        f"the {num_seed_records} available seed records (the paper's k=50 assumes "
        "~1.2M seeds).  Lower k in the config file, provide more input records, "
        "or relax gamma."
    )


def _command_generate(args: argparse.Namespace) -> int:
    schema = read_metadata(args.metadata)
    dataset = Dataset.from_csv(schema, args.input)
    options = json.loads(Path(args.config).read_text()) if args.config else {}
    for key, value in (("batch_size", args.batch_size), ("workers", args.workers)):
        if value is not None:  # the flag overrides the config file's key
            options[key] = value
    config = build_config(options, num_attributes=len(schema))
    rng_seed = int(options.get("rng_seed", _DEFAULT_CONFIG["rng_seed"]))
    if args.run_id and not args.run_store:
        raise SystemExit("--run-id requires --run-store")
    run_store = RunStore(args.run_store) if args.run_store else None

    pipeline = SynthesisPipeline(
        dataset, config, rng=np.random.default_rng(rng_seed), run_store=run_store
    )
    pipeline.fit()
    report = pipeline.generate(num_records=args.records, run_id=args.run_id)
    released = report.released_dataset()
    released.to_csv(args.output)

    model_epsilon, model_delta = pipeline.model_privacy_guarantee()
    print(f"input records:      {len(dataset)}")
    print(f"candidates tried:   {report.num_attempts}")
    print(f"records released:   {len(released)}  (pass rate {report.pass_rate:.1%})")
    print(f"model learning DP:  ({model_epsilon:.3f}, {model_delta:.2e})")
    if config.privacy.epsilon0 is not None:
        epsilon, delta, t = pipeline.release_privacy_guarantee()
        print(f"per-record release: ({epsilon:.3f}, {delta:.2e})-DP (Theorem 1, t={t})")
    print(f"output written to:  {args.output}")
    warning = _release_warning(
        len(released), args.records, config.privacy.k, len(pipeline.splits.seeds)
    )
    if warning is not None:
        print(warning, file=sys.stderr)
    return 0


def _serve_dataset_and_config(args: argparse.Namespace):
    """Resolve the dataset + config a ``repro serve`` invocation publishes."""
    if args.scenario:
        if args.input or args.metadata or args.config:
            raise SystemExit(
                "--scenario and --input/--metadata/--config are mutually "
                "exclusive (a scenario carries its own config)"
            )
        from repro.testing.scenarios import get_scenario

        scenario = get_scenario(args.scenario)
        return scenario.dataset(args.seed), scenario.config(), args.scenario
    if not args.input or not args.metadata:
        raise SystemExit("serve needs either --scenario or both --input and --metadata")
    schema = read_metadata(args.metadata)
    dataset = Dataset.from_csv(schema, args.input)
    options = json.loads(Path(args.config).read_text()) if args.config else {}
    config = build_config(options, num_attributes=len(schema))
    return dataset, config, Path(args.input).stem


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import ModelRegistry, ServiceApp, SessionBudget, build_server

    dataset, config, default_name = _serve_dataset_and_config(args)
    run_store = RunStore(args.run_store) if args.run_store else None
    default_budget = SessionBudget(
        epsilon=args.budget_epsilon,
        delta=args.budget_delta,
        max_rows=args.budget_max_rows,
        min_k=args.budget_min_k,
    )
    app = ServiceApp(
        ModelRegistry(run_store=run_store),
        num_workers=args.workers,
        default_budget=default_budget,
        audit_log=args.audit_log,
        audit_fsync=args.audit_fsync,
        journal=args.journal,
        store_max_bytes=args.store_max_bytes,
        max_queue_depth=args.max_queue_depth,
        deadline_ms=args.deadline_ms,
        engines_per_model=args.engines_per_model,
        worker_budget=args.worker_budget,
        drain_timeout=args.drain_timeout,
        telemetry=args.metrics or args.trace_log is not None,
        trace_log=args.trace_log,
    )
    name = args.model_name or default_name
    print(f"fitting and publishing model {name!r} ({len(dataset)} records)...")
    info = app.publish_model(name, dataset, config, seed=args.seed)
    print(f"model {info['model_id'][:16]}…  k={info['k']}  "
          f"per-row cost (ε={info['per_row_cost']['epsilon']:.4g}, "
          f"δ={info['per_row_cost']['delta']:.3g})")
    server = build_server(app, host=args.host, port=args.port, quiet=args.quiet)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}  (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
        app.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.cli``."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    # `lint` owns its whole argument vector (argparse.REMAINDER mishandles
    # option-like leading tokens), so hand it off before parsing anything.
    if arguments and arguments[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(arguments[1:])
    argv = arguments
    parser = argparse.ArgumentParser(
        prog="repro", description="Plausibly-deniable synthetic data generator"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sample = subparsers.add_parser(
        "sample-data", help="write a demo ACS-like dataset, metadata and config"
    )
    sample.add_argument("--output-dir", default="demo", help="directory to write into")
    sample.add_argument("--records", type=int, default=40_000, help="raw records to sample")
    sample.add_argument("--seed", type=int, default=0, help="RNG seed for the sample")
    sample.set_defaults(handler=_command_sample_data)

    generate = subparsers.add_parser("generate", help="generate synthetic records")
    generate.add_argument("--input", required=True, help="input CSV dataset")
    generate.add_argument("--metadata", required=True, help="JSON metadata describing the schema")
    generate.add_argument("--config", default=None, help="JSON config file (optional)")
    generate.add_argument("--output", required=True, help="output CSV for released synthetics")
    generate.add_argument("--records", type=int, default=1_000, help="records to release")
    generate.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="most candidates per vectorized synthesis batch "
        "(overrides the config; 1 is a batch of one; never changes the rows)",
    )
    generate.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes of the synthesis engine (overrides the "
        "config's 'workers', default 1 = in-process); never changes the rows",
    )
    generate.add_argument(
        "--run-store",
        default=None,
        help="directory of the experiment artifact store; caches the fitted "
        "model across invocations and holds engine run checkpoints",
    )
    generate.add_argument(
        "--run-id",
        default=None,
        help="checkpoint id for the synthesis run (requires --run-store); "
        "re-running with the same id and parameters resumes from the "
        "completed chunks",
    )
    generate.set_defaults(handler=_command_generate)

    serve = subparsers.add_parser(
        "serve",
        help="serve plausibly-deniable synthetics over a budgeted JSON/HTTP API",
    )
    serve.add_argument("--input", default=None, help="input CSV dataset to publish")
    serve.add_argument("--metadata", default=None, help="JSON metadata for --input")
    serve.add_argument("--config", default=None, help="JSON config file (optional)")
    serve.add_argument(
        "--scenario",
        default=None,
        help="publish a registered conformance scenario instead of a CSV "
        "(e.g. toy-correlated; see repro.testing.scenarios)",
    )
    serve.add_argument("--model-name", default=None, help="published model name")
    serve.add_argument("--seed", type=int, default=0, help="RNG seed of the model fit")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="engine worker processes per pooled engine (1 = in-process)",
    )
    serve.add_argument(
        "--engines-per-model", type=int, default=1,
        help="bound on pooled synthesis engines (and scheduler dispatchers) "
        "per model; >1 lets a hot model's overflow folds run in parallel",
    )
    serve.add_argument(
        "--worker-budget", type=int, default=None,
        help="global bound on reserved engine worker processes across all "
        "models; idle engines are LRU-reaped to stay under it (omit = "
        "unbounded)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds shutdown waits for in-flight folded batches to finish "
        "before failing still-queued requests",
    )
    serve.add_argument(
        "--run-store",
        default=None,
        help="artifact store directory: caches the published fit across restarts",
    )
    serve.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        help="size bound for the artifact store; LRU-gc'd after each publish "
        "with published models pinned",
    )
    serve.add_argument(
        "--audit-log",
        default=None,
        help="append every budget event (reserve/commit/refusal) to this "
        "JSON-lines file",
    )
    serve.add_argument(
        "--audit-fsync", action="store_true",
        help="fsync every audit-log and journal line (crash-safe mode)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        help="append-only JSON-lines budget journal, replayed on startup so "
        "session budgets and idempotency records survive restarts",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=None,
        help="bound on undispatched queued requests; past it /generate is "
        "refused with 503 + Retry-After (omit = unbounded)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request dispatch deadline in milliseconds; a request still "
        "queued past it fails with 504 and its reservation is refunded",
    )
    serve.add_argument(
        "--budget-epsilon", type=float, default=None,
        help="default per-session ε release budget (omit = uncapped)",
    )
    serve.add_argument(
        "--budget-delta", type=float, default=None,
        help="default per-session δ release budget (omit = uncapped)",
    )
    serve.add_argument(
        "--budget-max-rows", type=int, default=None,
        help="default per-session released-row cap (omit = uncapped)",
    )
    serve.add_argument(
        "--budget-min-k", type=int, default=1,
        help="default per-session k-deniability floor",
    )
    serve.add_argument(
        "--metrics", dest="metrics", action="store_true", default=True,
        help="expose the telemetry endpoints GET /metrics (Prometheus text) "
        "and GET /trace/<request_id> (span tree); on by default",
    )
    serve.add_argument(
        "--no-metrics", dest="metrics", action="store_false",
        help="disable telemetry entirely (no tracer, no metrics registry)",
    )
    serve.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="append every finished trace span to this JSON-lines file "
        "(torn-tail tolerant; implies telemetry on)",
    )
    serve.add_argument(
        "--quiet", action="store_true", default=True,
        help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--verbose", dest="quiet", action="store_false",
        help="log each HTTP request to stderr",
    )
    serve.set_defaults(handler=_command_serve)

    subparsers.add_parser(
        "lint",
        help="statically check RNG hygiene, privacy-spend accounting, lock "
        "discipline and determinism invariants (see `repro lint --help`)",
        add_help=False,
    )

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
