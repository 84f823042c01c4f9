"""Reproduction digest: the TINY timeline's learned conventions, pinned.

One ``ExperimentContext(2020, Scale.TINY).learn_timeline()`` runs the
whole pipeline (world, traceroute campaigns, ITDK/PeeringDB snapshots,
router-to-AS inference, learning).  Per training set, the SHA-256 of
``conventions_to_json`` plus the convention and item counts must equal
the committed fixture, so a refactor or speedup anywhere on that path
has to leave the output byte-identical.  Per ITDK set the fixture also
pins the campaign's traces (every hop, RTT, destination ASN and reached
flag, in order) and the router graph (every node state, sorted, and the
IXP-subsequent tallies), so the layers between the campaign and the
learner are pinned too, not just what survives into the conventions.

A change that alters the model on purpose rewrites the fixture with::

    PYTHONPATH=src python -m tests.integration.test_repro_digest

and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.io import conventions_to_json
from repro.eval.context import ExperimentContext, Scale

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" \
    / "repro_digest_tiny.json"
SEED = 2020


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, separators=(",", ":"))
                          .encode("utf-8")).hexdigest()


def traces_digest(traces) -> str:
    """SHA-256 over every trace's hops, RTTs (``repr``, so bit-exact),
    destination ASN and reached flag, in campaign order."""
    return _sha256([[list(trace.hops),
                     [None if rtt is None else repr(rtt)
                      for rtt in trace.rtts],
                     trace.dst_asn, trace.reached] for trace in traces])


def _tally(counter) -> list:
    return sorted([key, count] for key, count in counter.items())


def graph_digest(graph) -> str:
    """SHA-256 over the router graph's node states (sorted by node id,
    each counter sorted) and its IXP-subsequent tallies."""
    return _sha256({
        "states": [[node_id, _tally(state.origins),
                    _tally(state.subsequent_ifaces), sorted(state.mates),
                    _tally(state.last_hop_dests), _tally(state.dests)]
                   for node_id, state in sorted(graph.states.items())],
        "ixp_subsequent": [[node_id, _tally(counter)] for node_id, counter
                           in sorted(graph.ixp_subsequent.items())],
    })


def set_digest(training_set, result) -> dict:
    """One training set's pins: conventions, counts and, for an ITDK set,
    its traces and router graph."""
    out = {
        "sha256": hashlib.sha256(conventions_to_json(
            result).encode("utf-8")).hexdigest(),
        "conventions": len(result.conventions),
        "items": len(training_set.items),
    }
    if training_set.snapshot is not None:
        out["traces_sha256"] = traces_digest(training_set.snapshot.traces)
        out["graph_sha256"] = graph_digest(training_set.snapshot.graph)
    return out


def timeline_digest(seed: int = SEED) -> dict:
    """Per training set: conventions digest and counts."""
    ctx = ExperimentContext(seed, Scale.TINY)
    results = ctx.learn_timeline()
    return {"seed": seed, "scale": Scale.TINY.value, "sets": {
        t.label: set_digest(t, results[t.label]) for t in ctx.timeline}}


@pytest.fixture(scope="module")
def digest():
    return timeline_digest()


def expected_digest() -> dict:
    """The committed fixture."""
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_digest_matches_fixture(digest):
    expected = expected_digest()
    assert sorted(digest["sets"]) == sorted(expected["sets"])
    for label, want in expected["sets"].items():
        assert digest["sets"][label] == want, label


def test_every_itdk_set_pins_traces_and_graph():
    for label, want in expected_digest()["sets"].items():
        if label.endswith("-pdb"):
            assert "traces_sha256" not in want, label
        else:
            assert {"traces_sha256", "graph_sha256"} <= set(want), label


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(timeline_digest(), indent=2,
                                  sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s" % FIXTURE)
