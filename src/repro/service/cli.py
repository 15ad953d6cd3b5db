"""CLI verbs for the scheduler service: ``serve`` and ``submit``.

Registered into the main ``repro`` parser by
:func:`add_service_parsers` (mirroring how the lint subcommand plugs
in), so ``python -m repro serve`` / ``python -m repro submit`` ship
with the package without bloating :mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import available_algorithms

__all__ = ["add_service_parsers"]


def _cmd_serve(args: argparse.Namespace) -> int:
    # --trace is handled generically by repro.cli.main (trace_scope
    # around the whole command), so the service and its backends
    # inherit the active tracer.
    from repro.service import SchedulerService

    service = SchedulerService(
        host=args.host,
        port=args.port,
        results_path=args.out,
        backend=None if args.backend == "auto" else args.backend,
        workers=args.workers,
        shards=args.shards,
        queue_limit=args.queue_limit,
    )
    service.start()
    host, port = service.address
    print(f"serving on {host}:{port} (results -> {args.out})", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("interrupt: draining queue and shutting down", file=sys.stderr)
        service.stop()
    print("service stopped")
    return 0


def _print_metrics(metrics, indent: str = "") -> None:
    """Pretty-print a nested stats/metrics mapping."""
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_metrics(value, indent + "  ")
        else:
            print(f"{indent}{key}: {value}")


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceBusy, ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        with client:
            if args.status:
                frame = client.status()
                for key in sorted(frame):
                    if key not in ("type", "id", "v"):
                        print(f"{key}: {frame[key]}")
                return 0
            if args.stats:
                _print_metrics(client.stats())
                return 0
            if args.shutdown:
                client.shutdown()
                print("server acknowledged shutdown")
                return 0
            if not args.instance:
                print(
                    "error: an instance file is required unless --status, "
                    "--stats or --shutdown is given",
                    file=sys.stderr,
                )
                return 2
            with open(args.instance) as handle:
                payload = json.load(handle)

            def on_progress(frame):
                if not args.quiet:
                    print(f"  progress: {frame['done']}/{frame['total']}")

            outcome = client.solve(
                payload, args.algorithm, on_progress=on_progress
            )
    except ConnectionRefusedError:
        print(
            f"error: no service at {args.host}:{args.port}", file=sys.stderr
        )
        return 2
    except ServiceBusy as exc:
        print(f"busy: {exc}", file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = outcome.record
    source = "cache" if outcome.cached else "solved"
    print(f"instance : {record.instance} (n={record.n}, m={record.m})")
    print(f"algorithm: {record.algorithm}")
    print(f"status   : {record.status} ({source})")
    if outcome.elapsed_ms is not None:
        print(f"latency  : {outcome.elapsed_ms:.1f} ms (server-side)")
    if record.ok:
        print(f"makespan : {record.makespan}")
        print(f"bound T  : {record.lower_bound}")
        ratio = record.ratio
        if ratio is not None:
            print(f"ratio    : {float(ratio):.4f}")
        return 0
    print(f"error    : {record.error}", file=sys.stderr)
    return 1


def add_service_parsers(sub, positive_int, nonnegative_int) -> None:
    """Register ``serve``/``submit`` on the main CLI's subparsers."""
    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived scheduler service (solve over a socket)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=nonnegative_int,
        default=0,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    p_serve.add_argument(
        "-o",
        "--out",
        default="service.jsonl",
        help="canonical JSONL result file (doubles as the warm cache)",
    )
    p_serve.add_argument(
        "--backend",
        choices=("auto", "serial", "sharded"),
        default="auto",
        help="execution backend for dispatched batches",
    )
    p_serve.add_argument("--workers", type=positive_int, default=1)
    p_serve.add_argument("--shards", type=positive_int, default=None)
    p_serve.add_argument(
        "--queue-limit",
        type=positive_int,
        default=64,
        help="admission-queue depth before requests get 'busy' responses",
    )
    p_serve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write an obs trace (JSONL) of the service run to PATH",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit one instance to a running scheduler service",
    )
    p_submit.add_argument(
        "instance",
        nargs="?",
        help="instance JSON file (omit with --status/--shutdown)",
    )
    p_submit.add_argument(
        "-a",
        "--algorithm",
        default="three_halves",
        choices=available_algorithms(),
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=positive_int, required=True)
    p_submit.add_argument("--timeout", type=float, default=60.0)
    p_submit.add_argument(
        "--status", action="store_true", help="print server counters and exit"
    )
    p_submit.add_argument(
        "--stats",
        action="store_true",
        help="print the server's metrics snapshot (latency percentiles, "
        "queue depth, backpressure) and exit",
    )
    p_submit.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to shut down gracefully",
    )
    p_submit.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    p_submit.set_defaults(func=_cmd_submit)
