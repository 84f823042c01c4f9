"""Experiment digest: every experiment's TINY output, pinned.

``repro-hoiho all --scale tiny`` runs every experiment on one
``ExperimentContext(2020, Scale.TINY)`` and prints each one's rendered
text (Figures 5 and 6, Tables 1 and 2, sections 5 and 7, sensitivity,
ablation and Appendix A; no timings).  Per experiment, the SHA-256 of
that text and its line count must equal the committed fixture, so a
refactor or speedup anywhere under the experiments has to leave every
headline row byte-identical, not just the learned conventions that
``test_repro_digest`` pins.

A change that alters the model on purpose rewrites the fixture with::

    PYTHONPATH=src python -m tests.integration.test_experiment_digest

and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import _EXPERIMENTS, _run_experiment
from repro.eval.context import ExperimentContext, Scale

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" \
    / "experiment_digest_tiny.json"
SEED = 2020


def experiment_digest(seed: int = SEED) -> dict:
    """Per experiment, in ``all``'s order on one shared context: the
    SHA-256 of its rendered text and its line count."""
    context = ExperimentContext(seed, Scale.TINY)
    experiments = {}
    for name in sorted(_EXPERIMENTS):
        text = _run_experiment(name, context)
        experiments[name] = {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "lines": len(text.splitlines()),
        }
    return {"seed": seed, "scale": Scale.TINY.value,
            "experiments": experiments}


@pytest.fixture(scope="module")
def digest():
    return experiment_digest()


def test_digest_matches_fixture(digest):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(digest["experiments"]) == sorted(expected["experiments"])
    for name, want in expected["experiments"].items():
        assert digest["experiments"][name] == want, name


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(experiment_digest(), indent=2,
                                  sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s" % FIXTURE)
