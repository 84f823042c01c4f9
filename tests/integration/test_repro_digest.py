"""Reproduction digest: the TINY timeline's learned conventions, pinned.

One ``ExperimentContext(2020, Scale.TINY).learn_timeline()`` runs the
whole pipeline (world, traceroute campaigns, ITDK/PeeringDB snapshots,
router-to-AS inference, learning).  Per training set, the SHA-256 of
``conventions_to_json`` plus the convention and item counts must equal
the committed fixture, so a refactor or speedup anywhere on that path
has to leave the output byte-identical.

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


def timeline_digest(seed: int = SEED) -> dict:
    """Per training set: conventions digest and counts."""
    ctx = ExperimentContext(seed, Scale.TINY)
    results = ctx.learn_timeline()
    return {"seed": seed, "scale": Scale.TINY.value, "sets": {
        t.label: {
            "sha256": hashlib.sha256(conventions_to_json(
                results[t.label]).encode("utf-8")).hexdigest(),
            "conventions": len(results[t.label].conventions),
            "items": len(t.items),
        } for t in ctx.timeline}}


@pytest.fixture(scope="module")
def digest():
    return timeline_digest()


def test_digest_matches_fixture(digest):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(digest["sets"]) == sorted(expected["sets"])
    for label, want in expected["sets"].items():
        assert digest["sets"][label] == want, label


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(timeline_digest(), indent=2,
                                  sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s" % FIXTURE)
