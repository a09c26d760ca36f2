"""The daemon process of the ``daemon-mix`` workload.

Serves a ``PredictionDaemon`` on a unix socket the way ``repro-predict
serve`` does (the same ``PredictionService`` defaults: in-memory caches, the
inline backend, two RPC threads) until a client sends ``shutdown``.  On exit
it writes its peak RSS -- and with ``--trace`` its per-layer totals and span
self times -- to the ``--out`` JSON file.

    python3 perfbench/daemon_proc.py --socket d.sock --out d.json --scale 0.1 --seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.helpers import vmhwm_kib  # noqa: E402
from perfbench.layers import Layers  # noqa: E402
from perfbench.workloads import layer_totals  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.obs import Tracer
    from repro.service.daemon import PredictionDaemon, PredictionService

    layers = tracer = None
    if args.trace:
        layers = Layers()
        layers.install()
        layers.install_service()
        tracer = Tracer()
    service = PredictionService(
        dataset_scale=args.scale, num_workers=args.workers, seed=args.seed, tracer=tracer,
    )
    PredictionDaemon(service, args.socket).serve_forever()

    report = {"vmhwm_kib": vmhwm_kib()}
    if layers is not None:
        layers.uninstall()
        report["layers"] = layer_totals(layers, tracer)
        report["server_samples"] = layers.samples.get("service.server_s", [])
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
