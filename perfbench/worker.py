"""Run one benchmark command in a fresh process and time it.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the source tree, data and output directories, the pipeline
config, ``jobs``, the ``jrpnet.pipeline`` functions to call in order and
whether to trace.  The result (command wall time and, when traced, the
aggregated spans) goes to the path SPEC names.  Running each command in
its own process gives every execution a clean peak-memory reading.
"""

import json
import sys
import time


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from jrpnet import pipeline
    from jrpnet.config import PipelineConfig

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    config = PipelineConfig.from_dict(spec["config"])
    start = time.perf_counter()
    for name in spec["stages"]:
        # looked up at call time so the traced wrappers are the ones called
        getattr(pipeline, name)(spec["data"], spec["out"], config, jobs=spec["jobs"])
    wall_s = time.perf_counter() - start
    result = {"wall_s": wall_s, "trace": tracer.snapshot() if tracer else None}
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
