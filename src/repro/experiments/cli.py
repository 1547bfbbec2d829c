"""Unified command-line interface: experiment drivers and the serving front-end.

Installed as the ``fuse-experiment`` console script::

    fuse-experiment table1 --scale ci
    fuse-experiment table2 --scale ci
    fuse-experiment figure2
    fuse-experiment all --scale smoke
    fuse-experiment table1 --scale ci --workers 4   # sharded dataset generation

    fuse-experiment fuse-serve --unix /tmp/fuse.sock --shards 4
    fuse-experiment fuse-serve --host 127.0.0.1 --port 8707 --adapter-scope lora
    fuse-experiment fuse-serve --host 127.0.0.1 --port 0 --max-in-flight 64

``--workers`` threads a multi-process :class:`repro.runtime.ExecutionPlan`
through the selected scale: synthetic dataset generation shards its
sessions over a process pool, with bitwise-identical results (per-session
seeding), so reproductions only get faster, never different.  Feature
building and training run in process.

``fuse-serve`` (also installed as its own ``fuse-serve`` console script)
trains a small estimator on synthetic data, stands up a
:class:`repro.serve.ProcessShardedPoseServer` — one worker process per
serving shard — and exposes it through the asyncio socket front-end
(:class:`repro.serve.PoseFrontend`), speaking the pipelined protocol v2
(``--max-in-flight`` bounds per-connection pipelining).  Once the socket is
bound a ``[fuse-serve] ready ...`` line reports the actual address — with
``--port 0`` that is the kernel-assigned port, so drivers wait for the
line instead of sleeping.  The wire protocol is specified in
``docs/serving.md``; ``examples/serving_frontend.py`` drives it end to end.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..serve.policy import ADAPTER_SCOPES, AdapterPolicy
from . import figure2, figure3, figure4, table1, table2
from .scale import SCALE_NAMES, ExperimentScale, get_scale

__all__ = ["main", "router_main", "serve_main"]

_EXPERIMENTS = ("table1", "table2", "figure2", "figure3", "figure4")


def _run_one(name: str, scale: ExperimentScale) -> str:
    if name == "table1":
        return table1.format_table1(table1.run_table1(scale, verbose=True))
    if name == "table2":
        return table2.format_table2(table2.run_table2(scale, verbose=True))
    if name == "figure2":
        return figure2.format_figure2(figure2.run_figure2(scale))
    if name == "figure3":
        return figure3.format_figure3(figure3.run_figure3(scale, verbose=True))
    if name == "figure4":
        return figure4.format_figure4(figure4.run_figure4(scale, verbose=True))
    raise KeyError(f"unknown experiment '{name}'")


def _add_experiment_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="ci",
        choices=SCALE_NAMES,
        help="experiment scale preset (default: ci)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for synthetic dataset generation (default: 1; "
        "results are bitwise independent of this knob)",
    )


def _add_scheduling_policy_options(group) -> None:
    """Deadline / admission flags shared by fuse-serve and fuse-router."""
    group.add_argument(
        "--interactive-budget-ms",
        type=float,
        default=None,
        metavar="MS",
        help="latency budget of the 'interactive' traffic class "
        "(default: --max-delay-ms)",
    )
    group.add_argument(
        "--bulk-budget-ms",
        type=float,
        default=None,
        metavar="MS",
        help="latency budget of the 'bulk' traffic class "
        "(default: 10x the interactive budget)",
    )
    group.add_argument(
        "--rate-limit-per-user",
        type=float,
        default=None,
        metavar="RPS",
        help="per-user token-bucket refill rate at the front door; "
        "requests beyond it are shed with a retry_after_ms error frame "
        "(default: no rate limit)",
    )
    group.add_argument(
        "--rate-limit-burst",
        type=float,
        default=None,
        metavar="TOKENS",
        help="token-bucket burst capacity per user (default: 8)",
    )
    group.add_argument(
        "--retry-after-ms",
        type=float,
        default=None,
        metavar="MS",
        help="minimum retry hint attached to shed/rejected requests "
        "(default: 25)",
    )


def _scheduling_from_args(args: argparse.Namespace):
    """A SchedulingPolicy from the CLI flags, or None for the defaults.

    None keeps ServeConfig's derived policy (interactive = --max-delay-ms,
    bulk = 10x, no rate limit) so the flagless CLI behaves exactly as
    before the scheduling flags existed.
    """
    flags = (
        args.interactive_budget_ms,
        args.bulk_budget_ms,
        args.rate_limit_per_user,
        args.rate_limit_burst,
        args.retry_after_ms,
    )
    if all(value is None for value in flags):
        return None
    from ..serve import SchedulingPolicy, TrafficClass

    interactive = (
        args.interactive_budget_ms
        if args.interactive_budget_ms is not None
        else args.max_delay_ms
    )
    bulk = args.bulk_budget_ms if args.bulk_budget_ms is not None else interactive * 10.0
    overrides = {}
    if args.rate_limit_per_user is not None:
        overrides["rate_limit_per_user"] = args.rate_limit_per_user
    if args.rate_limit_burst is not None:
        overrides["rate_limit_burst"] = args.rate_limit_burst
    if args.retry_after_ms is not None:
        overrides["retry_after_ms"] = args.retry_after_ms
    return SchedulingPolicy(
        classes=(
            TrafficClass("interactive", interactive),
            TrafficClass("bulk", bulk),
        ),
        **overrides,
    )


def _add_serve_options(parser: argparse.ArgumentParser) -> None:
    binding = parser.add_argument_group("socket binding")
    binding.add_argument(
        "--unix", metavar="PATH", default=None, help="serve on a Unix-domain socket"
    )
    binding.add_argument(
        "--host", default=None, help="serve on TCP (default 127.0.0.1 when --unix is absent)"
    )
    binding.add_argument(
        "--port", type=int, default=8707, help="TCP port (default: 8707; 0 picks a free port)"
    )

    sharding = parser.add_argument_group("shard layout")
    sharding.add_argument(
        "--shards", type=int, default=2, help="serving shards / worker processes (default: 2)"
    )

    scheduling = parser.add_argument_group("micro-batch scheduling")
    scheduling.add_argument("--max-batch-size", type=int, default=32)
    scheduling.add_argument("--max-delay-ms", type=float, default=5.0)
    scheduling.add_argument("--max-queue-depth", type=int, default=256)
    _add_scheduling_policy_options(scheduling)

    wire = parser.add_argument_group("wire protocol")
    wire.add_argument(
        "--max-in-flight",
        type=int,
        default=32,
        help="pipelined requests served concurrently per connection "
        "(protocol v2; default: 32)",
    )

    adaptation = parser.add_argument_group("per-user adaptation")
    adaptation.add_argument(
        "--adapter-scope",
        choices=ADAPTER_SCOPES,
        default=None,
        help="per-user adaptation scope: full network, last layer, or "
        "low-rank factors (default: AdapterPolicy's)",
    )
    adaptation.add_argument(
        "--adapter-rank",
        type=int,
        default=None,
        help="low-rank factor rank for --adapter-scope lora (default: AdapterPolicy's)",
    )
    adaptation.add_argument(
        "--adapter-spill-dir",
        metavar="DIR",
        default=None,
        help="directory for warm-tier adapter spill files; adapted users "
        "survive shard-process restarts when set",
    )

    model = parser.add_argument_group("estimator bootstrap")
    model.add_argument(
        "--train-seconds",
        type=float,
        default=9.0,
        help="seconds of synthetic data per subject/movement pair (default: 9.0)",
    )
    model.add_argument("--train-epochs", type=int, default=3)
    model.add_argument("--seed", type=int, default=5)

    faults = parser.add_argument_group("fault injection (chaos testing)")
    faults.add_argument(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help="JSON fault schedule (repro.serve.FaultPlan) injected into the "
        "serving tier: worker crashes, corrupted/truncated wire frames, "
        "reply latency, blackholes and spill corruption fire at scripted "
        "occurrences (tests and chaos drills only)",
    )

    parser.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        help="honour the protocol's 'shutdown' message (examples and tests)",
    )


def _adapter_policy(args: argparse.Namespace) -> Optional[AdapterPolicy]:
    """The :class:`repro.serve.AdapterPolicy` the ``--adapter-*`` flags ask for.

    Only the flags given reach the policy, so its own defaults fill the
    rest; ``None`` (no flag given) leaves the serving default in place.
    """
    given = {
        name: value
        for name, value in (
            ("scope", args.adapter_scope),
            ("rank", args.adapter_rank),
            ("spill_dir", args.adapter_spill_dir),
        )
        if value is not None
    }
    return AdapterPolicy(**given) if given else None


def _run_serve(args: argparse.Namespace) -> int:
    """Train a small estimator, start the shard backend and serve sockets."""
    import asyncio

    from ..core import FuseConfig, FusePoseEstimator
    from ..core.training import TrainingConfig
    from ..dataset.synthetic import SyntheticDatasetConfig, generate_dataset
    from ..serve import FaultPlan, PoseFrontend, ProcessShardedPoseServer, ServeConfig
    from ..serve.cli_utils import format_ready_line

    if args.shards < 1:
        return _fail("--shards must be >= 1")
    if args.max_in_flight < 1:
        return _fail("--max-in-flight must be >= 1")
    if args.unix is not None and args.host is not None:
        return _fail("--unix and --host are mutually exclusive")
    if args.adapter_rank is not None and args.adapter_scope != "lora":
        return _fail("--adapter-rank requires --adapter-scope lora")
    try:
        adapter = _adapter_policy(args)
    except ValueError as error:
        return _fail(str(error))

    fault_plan = None
    if args.fault_plan is not None:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError, KeyError) as error:
            return _fail(f"could not load --fault-plan {args.fault_plan}: {error}")

    try:
        config = ServeConfig(
            max_batch_size=args.max_batch_size,
            max_delay_ms=args.max_delay_ms,
            max_queue_depth=args.max_queue_depth,
            adapter=adapter,
            scheduling=_scheduling_from_args(args),
            fault_plan=fault_plan,
        )
    except ValueError as error:
        return _fail(str(error))

    dataset = generate_dataset(
        SyntheticDatasetConfig(
            subject_ids=(1, 2),
            movement_names=("squat", "right_limb_extension"),
            seconds_per_pair=args.train_seconds,
            seed=args.seed,
        )
    )
    estimator = FusePoseEstimator(
        FuseConfig(
            num_context_frames=1,
            training=TrainingConfig(epochs=args.train_epochs, batch_size=128),
        )
    )
    print(f"[fuse-serve] training on {len(dataset)} synthetic frames...", flush=True)
    estimator.fit_supervised(estimator.prepare(dataset))

    server = ProcessShardedPoseServer(estimator, num_shards=args.shards, config=config)

    async def run() -> None:
        frontend = PoseFrontend(
            server,
            host=None if args.unix is not None else (args.host or "127.0.0.1"),
            port=args.port,
            unix_path=args.unix,
            max_in_flight=args.max_in_flight,
            allow_remote_shutdown=args.allow_remote_shutdown,
        )
        await frontend.start()
        where = frontend.address
        print(
            f"[fuse-serve] {args.shards} process shard(s) listening on {where} "
            f"(protocol v2, max in-flight {args.max_in_flight})",
            flush=True,
        )
        # A parseable readiness line carrying the *bound* address — with
        # ``--port 0`` the kernel picks the port, so e2e drivers wait for
        # this line instead of sleeping or polling
        # (repro.serve.cli_utils.parse_ready_line is the matching parser).
        if args.unix is not None:
            print(format_ready_line("fuse-serve", path=where), flush=True)
        else:
            print(format_ready_line("fuse-serve", host=where[0], port=where[1]), flush=True)
        try:
            await frontend.serve_until_closed()
        finally:
            print(
                f"[fuse-serve] served {frontend.requests_served} requests over "
                f"{frontend.connections_served} connection(s)",
                flush=True,
            )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("[fuse-serve] interrupted, shutting down", flush=True)
    finally:
        server.close()
    return 0


def _add_router_options(parser: argparse.ArgumentParser) -> None:
    binding = parser.add_argument_group("socket binding")
    binding.add_argument(
        "--unix", metavar="PATH", default=None, help="serve on a Unix-domain socket"
    )
    binding.add_argument(
        "--host", default=None, help="serve on TCP (default 127.0.0.1 when --unix is absent)"
    )
    binding.add_argument(
        "--port", type=int, default=8717, help="TCP port (default: 8717; 0 picks a free port)"
    )

    fleet = parser.add_argument_group("backend fleet")
    fleet.add_argument(
        "--backend",
        metavar="NAME=ENDPOINT",
        action="append",
        default=None,
        help="attach a running fuse-serve backend (ENDPOINT is host:port or "
        "a Unix socket path); repeatable",
    )
    fleet.add_argument(
        "--spawn",
        type=int,
        default=0,
        metavar="N",
        help="spawn N local fuse-serve backends on Unix sockets and attach "
        "them (they train the same seeded estimator, so replicas agree "
        "bitwise)",
    )
    fleet.add_argument(
        "--vnodes", type=int, default=128, help="virtual nodes per backend (default: 128)"
    )

    health = parser.add_argument_group("health checking")
    health.add_argument("--health-interval", type=float, default=1.0, metavar="SECONDS")
    health.add_argument("--health-timeout", type=float, default=1.0, metavar="SECONDS")
    health.add_argument(
        "--health-failures",
        type=int,
        default=3,
        help="consecutive failed pings before failover (default: 3)",
    )
    health.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request forwarding timeout; a timed-out backend counts a "
        "health-probe failure (brownout detection; default: no timeout)",
    )

    faults = parser.add_argument_group("fault injection (chaos testing)")
    faults.add_argument(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help="JSON fault schedule (repro.serve.FaultPlan) injected into the "
        "router tier (tests and chaos drills only)",
    )

    wire = parser.add_argument_group("wire protocol")
    wire.add_argument(
        "--max-in-flight",
        type=int,
        default=32,
        help="pipelined requests served concurrently per connection (default: 32)",
    )
    wire.add_argument(
        "--push-credits",
        type=int,
        default=256,
        help="per-connection push flow-control budget (default: 256)",
    )

    spawned = parser.add_argument_group("spawned backends (with --spawn)")
    spawned.add_argument(
        "--shards", type=int, default=2, help="serving shards per spawned backend (default: 2)"
    )
    spawned.add_argument("--max-batch-size", type=int, default=32)
    spawned.add_argument("--max-delay-ms", type=float, default=5.0)
    spawned.add_argument("--max-queue-depth", type=int, default=256)
    _add_scheduling_policy_options(spawned)
    spawned.add_argument("--train-seconds", type=float, default=9.0)
    spawned.add_argument("--train-epochs", type=int, default=3)
    spawned.add_argument("--seed", type=int, default=5)

    parser.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        help="honour the protocol's 'shutdown' message (examples and tests)",
    )


def _run_router(args: argparse.Namespace) -> int:
    """Attach (or spawn) the backend fleet and route one cluster socket."""
    import asyncio
    import os
    import subprocess
    import tempfile

    from ..serve import BackendSpec, FaultPlan, PoseRouter, maybe_injector
    from ..serve.cli_utils import format_ready_line, wait_for_ready

    if args.unix is not None and args.host is not None:
        return _fail("--unix and --host are mutually exclusive", prog="fuse-router")
    if args.request_timeout is not None and args.request_timeout <= 0:
        return _fail("--request-timeout must be positive", prog="fuse-router")
    fault_injector = None
    if args.fault_plan is not None:
        try:
            fault_injector = maybe_injector(FaultPlan.load(args.fault_plan))
        except (OSError, ValueError, KeyError) as error:
            return _fail(
                f"could not load --fault-plan {args.fault_plan}: {error}",
                prog="fuse-router",
            )
    if args.spawn < 0:
        return _fail("--spawn must be >= 0", prog="fuse-router")
    if not args.spawn and not args.backend:
        return _fail(
            "no backends: give --backend NAME=ENDPOINT and/or --spawn N",
            prog="fuse-router",
        )

    specs: list = []
    procs: list = []
    try:
        if args.spawn:
            spawn_dir = tempfile.mkdtemp(prefix="fuse-router-")
            for index in range(args.spawn):
                sock = os.path.join(spawn_dir, f"backend-{index}.sock")
                command = [
                    sys.executable,
                    "-m",
                    "repro.experiments.cli",
                    "fuse-serve",
                    "--unix",
                    sock,
                    "--shards",
                    str(args.shards),
                    "--max-batch-size",
                    str(args.max_batch_size),
                    "--max-delay-ms",
                    str(args.max_delay_ms),
                    "--max-queue-depth",
                    str(args.max_queue_depth),
                    "--train-seconds",
                    str(args.train_seconds),
                    "--train-epochs",
                    str(args.train_epochs),
                    # One shared seed: every replica trains the identical
                    # estimator, so failover/migration stay bitwise.
                    "--seed",
                    str(args.seed),
                ]
                for flag, value in (
                    ("--interactive-budget-ms", args.interactive_budget_ms),
                    ("--bulk-budget-ms", args.bulk_budget_ms),
                    ("--rate-limit-per-user", args.rate_limit_per_user),
                    ("--rate-limit-burst", args.rate_limit_burst),
                    ("--retry-after-ms", args.retry_after_ms),
                ):
                    if value is not None:
                        command += [flag, str(value)]
                procs.append(
                    subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
                )
            for index, proc in enumerate(procs):
                address = wait_for_ready(proc.stdout)
                specs.append(
                    BackendSpec(name=f"backend-{index}", unix_path=address.path)
                )
                print(
                    f"[fuse-router] spawned backend-{index} on {address.endpoint}",
                    flush=True,
                )
        for entry in args.backend or []:
            name, sep, endpoint = entry.partition("=")
            if not sep or not name or not endpoint:
                return _fail(
                    f"--backend expects NAME=ENDPOINT, got {entry!r}", prog="fuse-router"
                )
            specs.append(BackendSpec.from_endpoint(name, endpoint))

        async def run() -> None:
            router = PoseRouter(
                specs,
                host=None if args.unix is not None else (args.host or "127.0.0.1"),
                port=args.port,
                unix_path=args.unix,
                vnodes=args.vnodes,
                max_in_flight=args.max_in_flight,
                push_credits=args.push_credits,
                health_interval_s=args.health_interval,
                health_timeout_s=args.health_timeout,
                health_failures=args.health_failures,
                request_timeout_s=args.request_timeout,
                fault_injector=fault_injector,
                allow_remote_shutdown=args.allow_remote_shutdown,
            )
            await router.start()
            where = router.address
            print(
                f"[fuse-router] routing {len(specs)} backend(s): "
                + ", ".join(spec.name for spec in specs),
                flush=True,
            )
            if args.unix is not None:
                print(format_ready_line("fuse-router", path=where), flush=True)
            else:
                print(
                    format_ready_line("fuse-router", host=where[0], port=where[1]),
                    flush=True,
                )
            try:
                await router.serve_until_closed()
            finally:
                print(
                    f"[fuse-router] routed {router.frames_routed} frame(s), "
                    f"{router.users_failed_over} failover(s), "
                    f"{router.users_migrated} migration(s)",
                    flush=True,
                )

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            print("[fuse-router] interrupted, shutting down", flush=True)
        return 0
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _fail(message: str, prog: str = "fuse-serve") -> int:
    print(f"{prog}: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``fuse-experiment`` console script."""
    parser = argparse.ArgumentParser(
        prog="fuse-experiment",
        description="Regenerate the tables and figures of the FUSE paper (DAC 2022), "
        "or launch the serving front-end.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _EXPERIMENTS:
        _add_experiment_options(
            commands.add_parser(name, help=f"regenerate {name} of the paper")
        )
    _add_experiment_options(commands.add_parser("all", help="run every experiment"))
    _add_serve_options(
        commands.add_parser(
            "fuse-serve",
            help="launch the asyncio socket front-end over process-per-shard serving",
        )
    )
    _add_router_options(
        commands.add_parser(
            "fuse-router",
            help="route one cluster socket across N fuse-serve backends "
            "(consistent hashing, failover, live migration)",
        )
    )
    args = parser.parse_args(argv)

    if args.command == "fuse-serve":
        return _run_serve(args)
    if args.command == "fuse-router":
        return _run_router(args)

    if args.workers < 1:
        parser.error("--workers must be >= 1")
    scale = get_scale(args.scale)
    if args.workers != 1:
        scale = scale.with_workers(args.workers)
    names = _EXPERIMENTS if args.command == "all" else (args.command,)
    for name in names:
        print(f"\n===== {name} (scale={args.scale}, workers={args.workers}) =====\n")
        print(_run_one(name, scale))
    return 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``fuse-serve`` console script (a thin alias)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    return main(["fuse-serve", *argv])


def router_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``fuse-router`` console script (a thin alias)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    return main(["fuse-router", *argv])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
