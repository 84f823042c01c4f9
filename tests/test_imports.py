"""What a process imports, and the lazy package exports behind it.

A serving process imports only serving code: ``import repro.cli`` and
``import repro.serve.http`` load neither the pipeline nor the learner
nor a process pool, and once a server is up no request imports a
module -- so no request pays an import, and pre-fork workers share
every module they run.  Each check runs in a fresh interpreter, since
this one has imported everything already.

Every ``repro`` package resolves its exports lazily (PEP 562); the
names, ``from pkg import *`` and ``dir()`` behave as eager imports did.
And every import in ``src/repro`` and ``tests`` is used by the module
that makes it.
"""

import ast
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench import serve_conventions
from repro.core.io import conventions_to_json

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules neither the CLI nor the HTTP server may import to start.
NOT_ON_THE_SERVE_PATH = (
    "repro.pipeline", "repro.topology", "repro.traceroute",
    "repro.bdrmapit", "repro.itdk", "repro.eval", "repro.core.hoiho",
    "repro.core.parallel", "concurrent.futures", "multiprocessing",
)


def _run(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter on ``src``; its stdout's
    last line, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_BOUNDARY = """
import json, sys
import repro.cli
import repro.serve.http
print(json.dumps(sorted(sys.modules)))
"""

_REQUESTS = """
import http.client, json, socket, sys, threading
from repro.serve.http import AnnotationHTTPServer, HttpConfig, \\
    create_listener
from repro.serve.service import AnnotationService

service = AnnotationService.from_json_file(sys.argv[1])
service.warm()
config = HttpConfig(port=0, conventions=sys.argv[1])
server = AnnotationHTTPServer(service, config,
                              sock=create_listener(config.host, 0))
thread = threading.Thread(target=server.serve_forever,
                          kwargs={"poll_interval": 0.01}, daemon=True)
thread.start()
socket.getaddrinfo("127.0.0.1", 0)  # the client's own idna codec import
booted = set(sys.modules)
statuses = []
for method, path, body in [
        ("GET", "/healthz", None),
        ("POST", "/annotate",
         {"hostname": "as1000-et0.pop0.svc00-bench.org"}),
        ("POST", "/annotate/batch",
         {"hostnames": ["as1001-et1.pop1.svc01-bench.org", "x.example"]}),
        ("GET", "/metrics", None),
        ("GET", "/admin/status", None)]:
    conn = http.client.HTTPConnection("127.0.0.1", server.server_port,
                                      timeout=10)
    conn.request(method, path,
                 body=None if body is None else json.dumps(body))
    response = conn.getresponse()
    response.read()
    conn.close()
    statuses.append(response.status)
imported = sorted(set(sys.modules) - booted)
server.shutdown()
server.server_close()
thread.join(5)
print(json.dumps({"statuses": statuses, "imported": imported,
                  "loaded": sorted(booted)}))
"""


class TestServePathImports:
    def test_cli_and_http_server_import_no_pipeline_or_learner(self):
        loaded = set(_run(_BOUNDARY))
        assert {"repro.cli", "repro.serve.http"} <= loaded
        assert sorted(loaded.intersection(NOT_ON_THE_SERVE_PATH)) == []

    def test_no_request_imports_a_module(self, tmp_path):
        path = tmp_path / "conventions.json"
        path.write_text(conventions_to_json(serve_conventions()),
                        encoding="utf-8")
        seen = _run(_REQUESTS, str(path))
        assert seen["statuses"] == [200] * 5
        assert seen["imported"] == []
        assert sorted(set(seen["loaded"])
                      .intersection(NOT_ON_THE_SERVE_PATH)) == []


def _packages():
    """Every package under :mod:`repro`, itself included."""
    return ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg)


class TestLazyExports:
    @pytest.mark.parametrize("name", _packages())
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        assert package.__all__
        for export in package.__all__:
            assert getattr(package, export) is not None
        namespace = {}
        exec("from %s import *" % name, namespace)
        assert set(package.__all__) <= set(namespace)
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("name", _packages())
    def test_unknown_name_is_an_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert not hasattr(package, "__no_such_dunder__")


class TestHoihoResultHome:
    def test_learner_reexports_the_serving_class(self):
        from repro.core import HoihoResult
        from repro.core.hoiho import HoihoResult as learned
        from repro.core.select import HoihoResult as served
        assert learned is served is HoihoResult
        assert served.__module__ == "repro.core.select"

    def test_result_pickled_under_the_learner_name_loads(self):
        """A ``hoiho/`` store entry written before the class moved names
        it ``repro.core.hoiho.HoihoResult``; it loads as the moved
        class under the current store schema."""
        from repro.core.select import HoihoResult
        from repro.store import STORE_SCHEMA_VERSION
        result = serve_conventions(3)
        # Protocol 2 names classes as text ("c<module>\\n<name>\\n").
        moved = pickle.dumps(result, protocol=2)
        old = moved.replace(b"crepro.core.select\nHoihoResult\n",
                            b"crepro.core.hoiho\nHoihoResult\n")
        assert old != moved
        loaded = pickle.loads(old)
        assert type(loaded) is HoihoResult
        assert loaded == result
        assert STORE_SCHEMA_VERSION == 5


def _names_read(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}


def _annotations(tree: ast.AST):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            found = [node.returns] + [
                arg.annotation for arg in args.posonlyargs + args.args
                + args.kwonlyargs + [args.vararg, args.kwarg]
                if arg is not None]
        elif isinstance(node, ast.AnnAssign):
            found = [node.annotation]
        else:
            continue
        yield from (annotation for annotation in found if annotation)


def unused_imports(source: str) -> list:
    """Names a module imports and never uses.

    A name is used when code reads it, when a string annotation names
    it, or when ``__all__`` lists it.  ``__future__`` imports are
    directives, not names.  The lazy tables of package ``__init__``
    files name their exports as strings and import nothing, so they
    need no exemption.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names_read(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_read(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _unused_under(root: Path) -> list:
    return ["%s:%d %s" % (path.relative_to(root.parent), line, name)
            for path in sorted(root.rglob("*.py"))
            for line, name in unused_imports(path.read_text("utf-8"))]


class TestUnusedImports:
    def test_every_import_in_src_is_used(self):
        assert _unused_under(SRC / "repro") == []

    def test_every_import_in_tests_is_used(self):
        assert _unused_under(Path(__file__).resolve().parent) == []

    @pytest.mark.parametrize("source, unused", [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", [(1, "c")]),
        ("from __future__ import annotations\n", []),
        ("from typing import List\nx: 'List[int]' = []\n", []),
        ("from typing import List\ndef f() -> 'List[int]': pass\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import b\nb = 1\n", [(1, "b")]),
        ("from a import b\n'b'\n", [(1, "b")]),
    ])
    def test_what_counts_as_a_use(self, source, unused):
        assert unused_imports(source) == unused
