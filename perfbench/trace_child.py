"""Run one `minrep` command with a span around every public function.

Usage: python3 trace_child.py SPANS_FILE ARG...

Runs `minrep.cli.main(ARGS)` like the `minrep` console script, after
wrapping each public function of the `registry`, `rootsys`, `weyl`,
`linalg`, `verify` and `cli` modules in every one of those namespaces that
binds it, so calls from any module, and from inside the defining module,
are seen.  The 12 checks are wrapped in `verify._CHECKS`, where
`run_check` looks them up.  A span is named after the module that defines
the function, e.g. `linalg.matmul` whether it was called as `weyl.matmul`
or `verify.matmul`.  The `render` helpers are not wrapped, so their time
counts as their caller's.  No file of the package changes.

Spans stay in memory and are written to SPANS_FILE when the command ends,
as JSON with one list per field, span i being entry i of each:
`{"name": [...], "start_ns": [...], "end_ns": [...], "parent": [...],
"make_root_system": {"hits": h, "misses": m}}`.  A parent of -1 marks a
root span.  Times and parents are kept in arrays, so a span allocates no
object for the garbage collector to scan.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter_ns

MODULES = ("registry", "rootsys", "weyl", "linalg", "verify", "cli")


class Spans:
    def __init__(self):
        self.name: list[str] = []
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")

    def to_json(self) -> dict:
        return {"name": self.name, "start_ns": self.start_ns.tolist(),
                "end_ns": self.end_ns.tolist(), "parent": self.parent.tolist()}


def install(spans: Spans) -> dict:
    """Wrap the public functions in place; return the loaded modules."""
    stack = array("q", [-1])

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans.name)
            spans.name.append(name)
            spans.parent.append(stack[-1])
            spans.end_ns.append(0)
            stack.append(i)
            spans.start_ns.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end_ns[i] = perf_counter_ns()
                stack.pop()
        return traced

    modules = {m: importlib.import_module(f"minrep.{m}") for m in MODULES}
    wrappers = {}
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            layer = (getattr(obj, "__module__", None) or "").removeprefix("minrep.")
            if (attr.startswith("_") or isinstance(obj, type)
                    or not callable(obj) or layer not in MODULES):
                continue
            if obj not in wrappers:
                wrappers[obj] = wrap(f"{layer}.{obj.__name__}", obj)
            setattr(mod, attr, wrappers[obj])
    checks = modules["verify"]._CHECKS
    for check, fn in list(checks.items()):
        checks[check] = wrap(f"verify.{check}", fn)
    return modules


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    spans = Spans()
    modules = install(spans)
    try:
        return modules["cli"].main(cli_args)
    finally:
        # the lru_cache wrapper, not the span wrapper installed over it
        info = modules["rootsys"].make_root_system.__wrapped__.cache_info()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({**spans.to_json(),
                       "make_root_system": {"hits": info.hits,
                                            "misses": info.misses}},
                      fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
