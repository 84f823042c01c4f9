"""CI runs tests, not inline scripts.

Every check CI makes lives in a test module, a ``repro-hoiho`` command
or a make target, so each runs locally with one command.  These tests
fail when ``.github/workflows/ci.yml`` regains an inline ``python -
<<`` block, or when it (or the Makefile target it calls) names a
``tests/`` or ``benchmarks/`` path that does not exist.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: A repo path as a CI step or comment names it.
_PATH = re.compile(r"(?<![\w./-])((?:tests|benchmarks)/[\w./-]*\w)")


def test_ci_has_no_inline_python():
    text = CI.read_text(encoding="utf-8")
    assert not re.search(r"python3?\s+-\s*<<", text)


@pytest.mark.parametrize("path", [CI, ROOT / "Makefile"],
                         ids=lambda path: path.name)
def test_named_paths_exist(path):
    named = _PATH.findall(path.read_text(encoding="utf-8"))
    assert named
    assert [name for name in named if not (ROOT / name).exists()] == []
