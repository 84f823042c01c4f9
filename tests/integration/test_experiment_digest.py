"""Experiment digest: every experiment's TINY and SMALL output, pinned.

``repro-hoiho all --scale tiny`` runs every experiment on one
``ExperimentContext(2020, Scale.TINY)`` and prints each one's rendered
text (Figures 5 and 6, Tables 1 and 2, sections 5 and 7, sensitivity,
ablation and Appendix A; no timings).  Per experiment, the SHA-256 of
that text and its line count must equal the committed fixture, so a
refactor or speedup anywhere under the experiments has to leave every
headline row byte-identical, not just the learned conventions that
``test_repro_digest`` pins.  The SMALL rows are pinned the same way by
a ``slow`` test, which CI's ``e2e-digest`` job runs next to
``test_paper_shapes``: both read the session's one SMALL run
(``tests/integration/conftest.py``), so no experiment runs twice.

A change that alters the model on purpose rewrites the fixtures with::

    PYTHONPATH=src python -m tests.integration.test_experiment_digest
    PYTHONPATH=src python -m tests.integration.test_experiment_digest small

and says why.
"""

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, NamedTuple

import pytest

from repro.cli import _EXPERIMENTS, _experiment
from repro.eval.context import ExperimentContext, Scale

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEED = 2020


def fixture_path(scale: Scale) -> Path:
    """The committed digest of ``scale``."""
    return FIXTURES / ("experiment_digest_%s.json" % scale.value)


class ExperimentRun(NamedTuple):
    """Every experiment's result, keyed by its ``all`` name, and the
    one context they were run on."""

    context: ExperimentContext
    results: Dict[str, object]


def run_experiments(seed: int = SEED,
                    scale: Scale = Scale.TINY) -> ExperimentRun:
    """Run every experiment once, in ``all``'s order, on one shared
    context."""
    context = ExperimentContext(seed, scale)
    return ExperimentRun(context, {name: _experiment(name).run(context)
                                   for name in sorted(_EXPERIMENTS)})


def digest_of(run: ExperimentRun) -> dict:
    """Per experiment of ``run``: the SHA-256 of its rendered text and
    its line count."""
    experiments = {}
    for name, result in run.results.items():
        text = _experiment(name).render(result)
        experiments[name] = {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "lines": len(text.splitlines()),
        }
    return {"seed": run.context.seed, "scale": run.context.scale.value,
            "experiments": experiments}


def experiment_digest(seed: int = SEED, scale: Scale = Scale.TINY) -> dict:
    """:func:`digest_of` a fresh :func:`run_experiments`."""
    return digest_of(run_experiments(seed, scale))


def assert_matches_fixture(digest: dict, scale: Scale) -> None:
    expected = json.loads(fixture_path(scale).read_text(encoding="utf-8"))
    assert (digest["seed"], digest["scale"]) == \
        (expected["seed"], expected["scale"])
    assert sorted(digest["experiments"]) == sorted(expected["experiments"])
    for name, want in expected["experiments"].items():
        assert digest["experiments"][name] == want, name


@pytest.fixture(scope="module")
def digest():
    return experiment_digest()


def test_digest_matches_fixture(digest):
    assert_matches_fixture(digest, Scale.TINY)


@pytest.mark.slow
def test_small_digest_matches_fixture(experiment_runs):
    assert_matches_fixture(digest_of(experiment_runs(SEED, Scale.SMALL)),
                           Scale.SMALL)


if __name__ == "__main__":
    scale = Scale(sys.argv[1]) if len(sys.argv) > 1 else Scale.TINY
    path = fixture_path(scale)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(experiment_digest(scale=scale), indent=2,
                               sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s" % path)
