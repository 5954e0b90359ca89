"""Spans around surfshape's public functions, recorded from outside the package.

``Recorder.install`` replaces every public function (and every public method
of a public class) defined in the layer modules with a wrapper that records a
span: name, parent span, start and end.  The span name is
``<module>.<function>``, so the module names are the layer names.  Nothing in
``src/`` changes; references that other surfshape modules took with
``from .x import y`` are rebound to the wrappers as well.

Spans stay in memory and are written out once, when the traced process ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("io", "mesh", "registration", "fpca", "groupcompare", "individual", "warp", "synth", "chi2")

# functions whose span records the size of the file they read or write
_FILE_ARGUMENT = {
    "io.read_mesh": "path",
    "io.load_model": "path",
    "io.write_mesh": "path",
    "io.write_painted_mesh": "path",
    "io.save_model": "path",
}


class Recorder:
    """In-memory span store.  Each span is [id, parent_id, name, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        record = [len(self.spans), stack[-1] if stack else None, name, time.perf_counter(), None, {}]
        self.spans.append(record)
        stack.append(record[0])
        return record

    def close(self, record: list) -> None:
        record[4] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def install(self) -> None:
        """Wrap the public functions of every surfshape layer module; call once per process."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"surfshape.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replacements[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self._wrap(member, f"{layer}.{attr}"))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "surfshape" or module_name.startswith("surfshape.")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap(self, fn, name: str):
        file_argument = _FILE_ARGUMENT.get(name)
        is_gpa = name == "registration.weighted_gpa"
        is_permutation = name == "groupcompare.permutation_test"
        signature = inspect.signature(fn) if (file_argument or is_permutation) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            span_name = name
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if is_permutation:
                    span_name = f"{name}.{bound.arguments['mode']}"
            record = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(record)
            attrs = record[5]
            if file_argument:
                attrs["bytes"] = os.path.getsize(bound.arguments[file_argument])
            elif is_permutation:
                attrs["n_perm"] = int(bound.arguments["n_perm"])
            elif is_gpa:
                attrs["iterations"] = int(result.iterations)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def load_spans(path) -> list[list]:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def summarize(span_sets) -> dict[str, dict[str, float]]:
    """Per span name: total duration, total self time, call count and summed attributes.

    ``span_sets`` holds one span list per traced process; parent ids refer to
    spans of the same process.  Self time is a span's duration minus the
    durations of its direct children.
    """
    totals: dict[str, dict[str, float]] = {}
    for spans in span_sets:
        child_time = [0.0] * len(spans)
        for span_id, parent, _name, start, end, _attrs in spans:
            if parent is not None:
                child_time[parent] += end - start
        for span_id, _parent, name, start, end, attrs in spans:
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
            for key, value in attrs.items():
                entry[key] = entry.get(key, 0) + value
            if "bytes" in attrs:
                entry["max_bytes"] = max(entry.get("max_bytes", 0), attrs["bytes"])
    return totals


def root_time(span_sets) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for spans in span_sets for _i, parent, _n, start, end, _a in spans if parent is None)
