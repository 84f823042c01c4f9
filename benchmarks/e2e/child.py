"""Subprocess side of the pipeline workloads and the shared fixture.

Run as ``python child.py MODE JSON_ARGS`` with ``src`` on
``PYTHONPATH``; the last stdout line is one JSON object.  Every mode
imports the same modules first and reports ``imports_done`` as
``time.monotonic()`` (one system-wide clock on Linux), so the parent
times spawn-to-imports-done as the pipeline's set-up.

Modes:

* ``probe`` -- imports only (a set-up sample);
* ``run`` -- a storeless ``ExperimentContext.learn_timeline()``, the work
  of ``repro-hoiho run``;
* ``relearn`` -- load the world and timeline from a store and learn
  through the delta planner;
* ``fixture`` -- a ``run`` with a store attached, kept for the other
  workloads.

With ``"trace": PATH``, ``run`` and ``relearn`` hand the program a
``Tracer`` writing to PATH and split the wall time by the program's own
stage spans.
"""

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from repro.core.delta import dedupe_plans, plan_timeline
from repro.core.io import conventions_to_json
from repro.eval.context import ExperimentContext, Scale
from repro.eval.timeline import ITDK_TIMELINE
from repro.obs.trace import NULL_TRACER, Tracer
from repro.store import KIND_HOIHO, KIND_SUFFIX, KIND_TIMELINE, \
    KIND_WORLD, ArtifactStore

IMPORTS_DONE = time.monotonic()

#: The training set the serving workloads serve: the newest ITDK set.
SERVE_LABEL = ITDK_TIMELINE[-1][0]

#: The program's stage spans -> the layer each one times.  None of them
#: nests inside another, so their shares add up with the unattributed
#: rest to 1.
RUN_LAYERS = {
    "stage.world": "topology",
    "snapshot.naming": "naming",
    "snapshot.build": "itdk",
    "snapshot.graph": "bdrmapit.graph",
    "snapshot.annotate": "annotate",
    "snapshot.training": "pipeline.training",
    "snapshot.peeringdb": "peeringdb",
    "stage.learn": "core.learn",
}
#: In a relearn, the world and timeline stages are store reads.
RELEARN_LAYERS = {
    "stage.world": "store.load",
    "stage.timeline": "store.load",
    "stage.learn": "core.learn",
}


def set_digests(ctx, results) -> dict:
    """Per training set: conventions digest and counts."""
    return {t.label: {
        "sha256": hashlib.sha256(conventions_to_json(
            results[t.label]).encode("utf-8")).hexdigest(),
        "conventions": len(results[t.label].conventions),
        "items": len(t.items),
    } for t in ctx.timeline}


def layer_shares(records, wall: float, layers: dict) -> dict:
    """Each layer's share of ``wall``: the summed wall of its spans."""
    busy: Counter = Counter()
    for record in records:
        if record["name"] in layers:
            busy[layers[record["name"]]] += record["wall"]
    shares = {layer + ".share": busy[layer] / wall
              for layer in set(layers.values())}
    shares["trace.unattributed_share"] = 1.0 - sum(busy.values()) / wall
    return shares


def run_counts(ctx, results) -> dict:
    """Work counts per layer, read from the run's public results."""
    counts: Counter = Counter()
    for training_set in ctx.timeline:
        counts["pipeline.training.items"] += len(training_set.items)
        built = training_set.snapshot
        if built is None:
            continue
        counts["naming.hostnames"] += len(built.naming.records)
        counts["traceroute.traces"] += len(built.traces)
        counts["traceroute.hops"] += sum(len(t.hops) for t in built.traces)
        counts["itdk.addresses"] += len(
            built.snapshot.resolution.node_of_address)
        counts["bdrmapit.graph.nodes"] += len(built.graph.states)
        counts["annotate.routers"] += len(built.annotations)
    for result in results.values():
        counts["core.learn.suffixes"] += result.suffixes_examined
        counts["core.learn.conventions"] += len(result.conventions)
    counts["topology.routers"] = len(ctx.world.routers())
    counts["traceroute.routing_dsts"] = ctx.routing.computed_destinations
    return dict(counts)


def _tracer(args: dict):
    return Tracer(path=args["trace"]) if args.get("trace") else NULL_TRACER


def mode_probe(args: dict) -> dict:
    return {}


class Timed:
    """Wall, user CPU and system CPU time of the block, plus its
    ``time.monotonic()`` bounds, so the parent can read the speed probe
    over exactly it."""

    def __enter__(self) -> "Timed":
        self.start = time.monotonic()
        self.usage = resource.getrusage(resource.RUSAGE_SELF)
        return self

    def __exit__(self, *exc_info) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.user = usage.ru_utime - self.usage.ru_utime
        self.system = usage.ru_stime - self.usage.ru_stime
        self.end = time.monotonic()
        self.wall = self.end - self.start

    def report(self) -> dict:
        return {"wall_s": self.wall, "user_s": self.user,
                "sys_s": self.system, "run_start": self.start,
                "run_end": self.end}


def mode_run(args: dict) -> dict:
    tracer = _tracer(args)
    with Timed() as timed:
        ctx = ExperimentContext(args["seed"], Scale(args["scale"]),
                                tracer=tracer)
        results = ctx.learn_timeline()
    wall = timed.wall
    tracer.close()
    out = dict(timed.report(), sets=set_digests(ctx, results))
    if tracer.enabled:
        out["layers"] = dict(layer_shares(tracer.records, wall, RUN_LAYERS),
                             **run_counts(ctx, results))
    return out


def mode_fixture(args: dict) -> dict:
    root = Path(args["dir"])
    ctx = ExperimentContext(args["seed"], Scale(args["scale"]),
                            store=ArtifactStore(root / "store"))
    start = time.perf_counter()
    results = ctx.learn_timeline()
    wall = time.perf_counter() - start
    doc = {
        "seed": args["seed"], "scale": args["scale"], "fixture_s": wall,
        "sets": set_digests(ctx, results),
        "universe": sorted({item.hostname for t in ctx.timeline
                            for item in t.items}),
        "serve_label": SERVE_LABEL,
        "serve_conventions": conventions_to_json(results[SERVE_LABEL]),
    }
    (root / "fixture.json").write_text(json.dumps(doc), encoding="utf-8")
    return {"fixture_s": wall, "sets": doc["sets"]}


def mode_relearn(args: dict) -> dict:
    tracer = _tracer(args)
    store = ArtifactStore(args["store"])
    with Timed() as timed:
        ctx = ExperimentContext(args["seed"], Scale(args["scale"]),
                                store=store, tracer=tracer)
        results = ctx.learn_timeline()
    wall = timed.wall
    out = dict(timed.report(), sets=set_digests(ctx, results))
    if not tracer.enabled:
        return out
    # The planner runs inside stage.learn without a span of its own; it
    # is timed here again, from outside and after the run, on the same
    # loaded timeline.
    with tracer.span("core.delta.plan") as plan_span:
        plans = plan_timeline(ctx.timeline, ctx.hoiho_config).all_plans()
        dedupe_plans(plans)
    tracer.close()
    learn = next(r for r in tracer.records if r["name"] == "stage.learn")
    kinds = store.info()["kinds"]
    out["layers"] = dict(
        layer_shares(tracer.records, wall, RELEARN_LAYERS),
        **{"store.load.bytes": kinds[KIND_WORLD]["bytes"]
           + kinds[KIND_TIMELINE]["bytes"],
           "store.write.share": sum(r["wall"] for r in tracer.records
                                    if r["name"] == "store.put") / wall,
           "store.writes": ctx.metrics.snapshot()["counters"].get(
               "store_writes", 0),
           "store.write.bytes": kinds[KIND_HOIHO]["bytes"]
           + kinds[KIND_SUFFIX]["bytes"],
           "core.delta.plan.share": plan_span.wall / wall,
           "core.delta.plan.plans": learn["attrs"]["suffix_plans"],
           "core.delta.plan.unique_share": learn["attrs"]["suffix_unique"]
           / max(1, learn["attrs"]["suffix_plans"])})
    return out


MODES = {"probe": mode_probe, "run": mode_run, "relearn": mode_relearn,
         "fixture": mode_fixture}


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in MODES:
        print("usage: child.py {%s} JSON_ARGS" % "|".join(MODES),
              file=sys.stderr)
        return 2
    out = MODES[argv[0]](json.loads(argv[1]))
    out["imports_done"] = IMPORTS_DONE
    out["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
