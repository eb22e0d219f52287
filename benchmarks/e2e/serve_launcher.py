"""Child process of the serve-churn workload: one resolution server.

Hosts :class:`repro.serve.ServeApp` behind :func:`repro.serve.run_server`
with the benchmark's settings, prints ``READY <port>`` once it listens,
answers SIGUSR1 with ``PACE <seconds>`` (see ``harness.reference_pace``,
run between load rounds while the server is idle), and drains and exits
on SIGTERM.  With ``--trace-out`` it records the
streaming layer's spans (see :mod:`tracing`) and appends them to that file
on exit, under the client's run id.

    python3 benchmarks/e2e/serve_launcher.py --root DIR --max-sessions 4
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def report_pace() -> None:
    from harness import reference_pace

    print(f"PACE {reference_pace()!r}", flush=True)


async def serve(app) -> None:
    from repro.serve import run_server

    loop = asyncio.get_running_loop()
    shutdown = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, shutdown.set)
    loop.add_signal_handler(signal.SIGUSR1, report_pace)
    ready = loop.create_future()
    server = loop.create_task(run_server(app, shutdown=shutdown, ready=ready))
    await asyncio.wait({ready, server}, return_when=asyncio.FIRST_COMPLETED)
    if not ready.done():
        await server  # it ended before listening: raise its error
    print(f"READY {ready.result()}", flush=True)
    await server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--max-sessions", type=int, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--run-id", default="serve")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent.parent / "src"))

    from repro.serve import ServeApp

    tracer = None
    if args.trace_out is not None:
        from tracing import Tracer, install_layer_spans

        tracer = Tracer(args.run_id)
        install_layer_spans(tracer)
    app = ServeApp(args.root, max_sessions=args.max_sessions, crowd_latency=0.0)
    asyncio.run(serve(app))
    if tracer is not None:
        tracer.write(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
