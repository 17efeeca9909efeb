#!/usr/bin/env python
"""Function census: which functions under ``src/repro`` tier-1 never enters.

Runs the tier-1 suite in this interpreter under a stdlib trace hook
(``sys.settrace``, call events only: the hook returns ``None`` so no
line is traced) and records every code object entered.  Functions
entered only inside worker-pool processes count too: the hook is
inherited across ``fork`` and each worker writes its record on exit.
It then parses every module under ``src/repro`` and prints each
function and method whose code object was never entered, one
``path:line qualified.name`` per line, followed by a count.

Usage (from the repository root)::

    python scripts/census.py                  # the whole tier-1 suite
    python scripts/census.py tests/test_sim_engine.py   # any pytest args

It is a worklist for deleting dead code, not a gate: a function the
suite never enters may still be reached by a CLI, an example or a
benchmark.  Exit status is pytest's.
"""

from __future__ import annotations

import ast
import multiprocessing.util
import os
import sys
import tempfile
import threading
from typing import Dict, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
sys.path.insert(0, SRC)

#: ``(file, first line, name)`` of a code object, as ``ast`` sees it.
Key = Tuple[str, int, str]


def defined_functions() -> Dict[Key, str]:
    """Every function and method under ``src/repro``: key -> qualname."""
    found: Dict[Key, str] = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its first decorator.
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                name = prefix + child.name
                found[(path, first, child.name)] = name
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for directory, _dirs, files in os.walk(PACKAGE):
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                with open(path, encoding="utf-8") as handle:
                    walk(ast.parse(handle.read(), path), path, "")
    return found


def main(argv=None) -> int:
    import pytest

    args = list(sys.argv[1:] if argv is None else argv) or ["-x", "-q"]
    entered: Set[Key] = set()
    record_dir = tempfile.mkdtemp(prefix="repro-census-")

    def on_call(frame, _event, _arg):
        code = frame.f_code
        if "repro" in code.co_filename:
            entered.add((code.co_filename, code.co_firstlineno,
                         code.co_name))

    def dump_worker_record() -> None:
        path = os.path.join(record_dir, f"{os.getpid()}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            for key in entered:
                handle.write("%s\t%d\t%s\n" % key)

    # Forked pool workers inherit the hook; each registers a finaliser
    # (the parent's are cleared at fork) that writes its record on a
    # clean exit, and the parent merges the records below.
    multiprocessing.util.register_after_fork(
        on_call, lambda _hook: multiprocessing.util.Finalize(
            None, dump_worker_record, exitpriority=0))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for filename in os.listdir(record_dir):
        path = os.path.join(record_dir, filename)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                file, first, name = line.rstrip("\n").split("\t")
                entered.add((file, int(first), name))
        os.remove(path)
    os.rmdir(record_dir)

    # The package may be imported through a relative ``sys.path`` entry.
    entered = {(os.path.abspath(file), first, name)
               for file, first, name in entered}
    functions = defined_functions()
    missed = sorted(key for key in functions if key not in entered)
    print(f"\nnever entered ({len(missed)} of {len(functions)} "
          f"functions under src/repro):")
    for key in missed:
        print(f"{os.path.relpath(key[0], ROOT)}:{key[1]} {functions[key]}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
