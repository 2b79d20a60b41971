"""One repetition of one workload, run in a fresh process.

Usage (the harness builds the argument)::

    python benchmarks/e2e/rep.py '<json config>'

The config names the source tree, the workload's parameters, the seeded
inputs (each a ``timing_seed`` and ``slice_seed`` value), a cache
directory, whether to trace, and ``spawn_t``: the parent's
``time.monotonic()`` just before it started this process. ``setup_s``
runs from ``spawn_t`` to the start of the timed region, so it covers
interpreter start and imports. The program runs with its observability
off.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import layers


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    from hfast import pipeline
    from hfast.interconnect import InterconnectConfig

    params = cfg["params"]
    scales = params["scales"]

    tracer = None
    if cfg["trace"]:
        tracer = layers.Tracer(cfg["run_id"])
        tracer.install()

    t0 = time.monotonic()
    outs = [
        pipeline.run_pipeline(
            apps=list(scales),
            scales=scales,
            cache_dir=cfg["cache_dir"],
            store=params["store"],
            timing_seed=s,
            config=InterconnectConfig(slice_seed=s),
        )
        for s in cfg["inputs"]
    ]
    wall_s = time.monotonic() - t0
    units = [{"ok": c["ok"], "wall_s": c["wall_s"]} for o in outs for c in o["manifest"]["cells"]]
    results = json.dumps([o["results"] for o in outs], sort_keys=True).encode("utf-8")
    print(
        json.dumps(
            {
                "setup_s": t0 - cfg["spawn_t"],
                "wall_s": wall_s,
                "peak_rss_kb": layers.vm_hwm_kb(),
                "digest": hashlib.sha256(results).hexdigest(),
                "units": units,
                "spans": tracer.spans if tracer is not None else None,
                "tracing_cost_s": tracer.cost_s if tracer is not None else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
