"""List the statements of ``src/ge_select/`` that the test suite never runs.

Run from the repository root::

    python tests/unreached_lines.py [test paths and pytest options]

It runs the suite in this process under a ``sys.settrace`` line tracer (no
``coverage`` package needed) and follows every child Python process through a
``sitecustomize.py`` in a temporary directory put first on ``PYTHONPATH``,
which the tests pass on to the children they start. It merges the lines hit
by every process and prints ``file:line: source`` for each statement no
process ran, then their count. It exits 1 if any statement is unreached or
any test failed, and 2 if a ``sitecustomize`` module is already importable,
because the one written here would hide it from the children.

A statement counts as run when any line of its own (for a compound statement,
its header) raises a line event. Docstrings, ``global``/``nonlocal`` and the
body of ``if TYPE_CHECKING:`` never run and are not counted. Tracing makes
the suite about three times slower, so this script is not part of it.
"""

from __future__ import annotations

import ast
import atexit
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "ge_select"

# Installed as ``sitecustomize`` so that every Python child traces the
# package's files from start-up, and loaded by path into this process too. It
# imports only what a bare interpreter may load anyway: the suite checks which
# modules the CLI adds.
_HOOK = """\
import atexit, json, os, sys, threading


def _install(prefix, hits_dir):
    hits, known = set(), {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        wanted = known.get(name)
        if wanted is None:
            wanted = known[name] = os.path.abspath(name).startswith(prefix)
        return local if wanted else None

    def stop():
        sys.settrace(None)
        threading.settrace(None)
        path = os.path.join(hits_dir, "hits-%%d.json" %% os.getpid())
        try:
            with open(path + ".tmp", "w", encoding="utf-8") as f:
                json.dump(sorted(hits), f)
            os.replace(path + ".tmp", path)
        except OSError:
            pass

    threading.settrace(call)
    sys.settrace(call)
    atexit.register(stop)
    return stop


stop = _install(%(prefix)r, %(hits_dir)r)
"""


def _is_docstring(body: list[ast.stmt], node: ast.stmt) -> bool:
    return (
        body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> dict[int, range]:
    """Each statement of ``path`` that emits code, as its first line mapped to
    the lines any of which shows it ran: a simple statement's own lines, a
    compound statement's header up to its first body statement."""
    out: dict[int, range] = {}

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if _is_docstring(body, node) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            blocks = ("body", "orelse", "finalbody")
            inner = [child for field in blocks for child in getattr(node, field, ())]
            if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                # ``try:`` itself emits no code; its body and handlers count.
                for handler in node.handlers:
                    out[handler.lineno] = range(handler.lineno, handler.body[0].lineno)
                    visit(handler.body)
                for block in (node.body, node.orelse, node.finalbody):
                    visit(block)
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                # Its body is read by type checkers only, never run.
                out[first] = range(first, node.lineno + 1)
                visit(node.orelse)
                continue
            if inner:
                header_end = min(child.lineno for child in inner)
                out[first] = range(first, max(header_end, node.lineno + 1))
                for field in blocks:
                    visit(getattr(node, field, []))
            else:
                out[first] = range(first, node.end_lineno + 1)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body)
    return out


def unreached(hits: set[tuple[str, int]]) -> list[tuple[Path, int]]:
    """The statements of the package's files that no hit falls on."""
    by_file: dict[str, set[int]] = {}
    for name, line in hits:
        by_file.setdefault(os.path.abspath(name), set()).add(line)
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = by_file.get(str(path), set())
        for first, span in sorted(statements(path).items()):
            if not lines.intersection(span):
                missing.append((path, first))
    return missing


def main(argv: list[str]) -> int:
    if importlib.util.find_spec("sitecustomize") is not None:
        print("a sitecustomize module is already importable; unset it first", file=sys.stderr)
        return 2
    import pytest

    hits: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="unreached-") as hook_dir:
        hits_dir = os.path.join(hook_dir, "hits")
        os.mkdir(hits_dir)
        hook = Path(hook_dir, "sitecustomize.py")
        hook.write_text(
            _HOOK % {"prefix": str(PACKAGE) + os.sep, "hits_dir": hits_dir}, encoding="utf-8"
        )
        old_path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [hook_dir, str(SRC), old_path]))
        sys.path.insert(0, str(SRC))
        spec = importlib.util.spec_from_file_location("_unreached_hook", hook)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)  # starts tracing this process
        try:
            status = pytest.main(
                ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 *(argv or [str(REPO / "tests")])]
            )  # fmt: skip
        finally:
            tracing.stop()
            atexit.unregister(tracing.stop)
            if old_path is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = old_path
        files = sorted(Path(hits_dir).glob("hits-*.json"))
        for hit_file in files:
            hits.update(map(tuple, json.loads(hit_file.read_text(encoding="utf-8"))))

    missing = unreached(hits)
    for path, line in missing:
        source = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{path.relative_to(REPO)}:{line}: {source}")
    print(f"{len(missing)} unreached statements ({len(files) - 1} child processes followed)")
    if status != 0:
        print(f"pytest exited {int(status)}", file=sys.stderr)
    return 1 if missing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
