#!/usr/bin/env python
"""Serving quickstart: a persistent solve service and three clients.

Runs in a few seconds, entirely in-process (no daemon left behind):

1. start a :class:`repro.serve.SolveService` on a temporary unix
   socket — the same server that ``parma serve`` runs;
2. simulate two devices (different grid sizes) with the wet-lab
   generator;
3. submit three solve requests concurrently from client threads —
   two at one grid size (whichever runs second finds its host warm
   for that ``n``) and one at another; each runs as soon as the
   dispatcher is free, one request per dispatch;
4. print each request's status, caching/queueing telemetry, and the
   run manifest path written under the service's results directory.

Usage::

    python examples/serve_client.py [n_small] [n_large] [seed]

The same flow over the CLI, against a long-lived daemon::

    parma serve --socket /tmp/parma.sock --results /tmp/parma-results &
    parma submit day.json --socket /tmp/parma.sock --hour 6

See ``docs/SERVING.md`` for the wire protocol and semantics.
"""

import sys
import tempfile
import threading
from pathlib import Path

from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import run_campaign
from repro.observe import Observer
from repro.serve import ServiceConfig, SolveClient, SolveService


def main(n_small: int = 10, n_large: int = 14, seed: int = 7) -> None:
    print(f"== Parma serving quickstart: n={n_small} and n={n_large} ==\n")

    # Two simulated devices; three measurements to serve.
    small = run_campaign(paper_like_spec(n_small, seed=seed), seed=seed)
    large = run_campaign(paper_like_spec(n_large, seed=seed), seed=seed + 1)
    jobs = [
        ("small-h0", small.campaign.measurements[0]),
        ("small-h6", small.campaign.measurements[1]),
        ("large-h0", large.campaign.measurements[0]),
    ]

    with tempfile.TemporaryDirectory(prefix="parma-serve-") as tmp:
        config = ServiceConfig(
            socket_path=Path(tmp) / "parma.sock",
            results_dir=Path(tmp) / "results",
            observer=Observer(),  # service-level serve.* metrics for `stats`
        )
        service = SolveService(config)
        service.start()
        try:
            client = SolveClient(config.socket_path)
            client.wait_ready()
            print(f"service up on {config.socket_path}\n")

            # Submit all three concurrently, as independent clients would.
            responses: dict[str, object] = {}

            def submit(name: str, measurement) -> None:
                responses[name] = client.solve(
                    measurement.z_kohm,
                    voltage=measurement.voltage,
                    hour=measurement.hour,
                    id=name,
                )

            threads = [
                threading.Thread(target=submit, args=job) for job in jobs
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            for name, _ in jobs:
                r = responses[name]
                caches = "warm" if r.cache_warm else "cold"
                print(f"[{name}] {r.status} in {r.elapsed_seconds:.3f}s "
                      f"({caches} caches, queued {r.queue_seconds:.3f}s)")
                print(f"  {r.summary}")
                print(f"  manifest: {r.manifest_path}")

            stats = client.stats()
            ok = stats["metrics"]["serve.responses.ok"]["value"]
            print(f"\nservice totals: {stats['requests']:g} requests, "
                  f"{ok:g} ok")
        finally:
            service.stop()
        print("service drained and stopped.")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:4]))
