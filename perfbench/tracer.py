"""Outside-in tracer: wraps public functions of the semicayley modules.

Nothing in the package is edited.  Each target is replaced by a wrapper in
its defining module and in every loaded `semicayley` module that imported
the same object by name, so calls between modules go through the wrapper.

Span targets record (id, parent id, job id, name, start, end) in memory;
spans are written out once, by `write_spans`, when the pass ends.  Self
time is a span's duration minus the time its child spans cover.  "Hot"
targets (called hundreds of thousands of times) keep the same self-time
accounting but store no span records, and count targets only count calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict

# (module, qualified name, kind); kind is "span", "hot" or "count"
TARGETS = (
    ("groups", "AbelianGroup.validate_element", "count"),
    ("graphs", "build", "span"),
    ("graphs", "cay_adjacency", "span"),
    ("characters", "char_sum", "span"),
    ("characters", "eval_character", "hot"),
    ("characters", "CycloValue.residue", "hot"),
    ("characters", "character_matrix", "span"),
    ("spectra", "spectrum", "span"),
    ("transfer", "oracle_expm", "span"),
    ("transfer", "transfer_entry", "span"),
    ("transfer", "transfer_matrix", "span"),
    ("pst", "decide_pair", "span"),
    ("pst", "decide_cross_layer", "span"),
    ("pst", "decide_same_layer_rl", "span"),
    ("pst", "refute_phases", "span"),
    ("pst", "verify_at_time", "span"),
    ("pst", "scan_pair", "span"),
    ("pst", "periodicity", "span"),
    ("pst", "find_pst", "span"),
    ("cli", "run", "span"),
)

TIMED_NAMES = tuple(f"{m}.{q}" for m, q, kind in TARGETS if kind != "count")
COUNTED_NAMES = tuple(f"{m}.{q}" for m, q, _ in TARGETS)


def _oracle_dim3(args, kwargs) -> float:
    adjacency = args[0] if args else kwargs.get("adjacency")
    return float(len(adjacency)) ** 3


# extra per-call quantities accumulated from the arguments
EXTRAS = {"transfer.oracle_expm": ("transfer.oracle_expm.dim3_sum", _oracle_dim3)}


class Tracer:
    def __init__(self) -> None:
        self.job = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # frames [child_seconds, span_id]
        self._ids = itertools.count()

    def span(self, name: str, fn, record: bool = True):
        """Wrap fn so that each call is a span named `name`."""
        clock = time.perf_counter
        stack = self._stack
        calls, self_s, spans, ids = self.calls, self.self_s, self.spans, self._ids
        extra = EXTRAS.get(name)

        def wrapper(*args, **kwargs):
            if extra is not None:
                self.extra[extra[0]] += extra[1](args, kwargs)
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(ids) if record else parent]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if record:
                    spans.append((frame[1], parent, self.job, name, start, end))

        return functools.wraps(fn)(wrapper)

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self, package: str = "semicayley") -> list[str]:
        """Wrap every target that exists; returns the names that were missing."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        missing = []
        for module_name, qualname, kind in TARGETS:
            name = f"{module_name}.{qualname}"
            module = sys.modules.get(f"{package}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            if kind == "count":
                wrapped = self.counter(name, original)
            else:
                wrapped = self.span(name, original, record=(kind == "span"))
            setattr(owner, attr, wrapped)
            if not owner_name:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        return missing

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, job, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                         "name": name, "start": start, "end": end}) + "\n")

