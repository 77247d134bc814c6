"""Spans around the calls into each gf2minor layer, recorded from outside.

``Tracer.install`` replaces the module bindings and methods in ``BINDINGS``
with wrappers that record one span per call: name, parent span, start and
end.  Spans live in flat arrays in memory and are written out at the end.
``uninstall`` puts every original attribute back; nothing under ``src/``
is edited.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _found(result) -> bool:
    return result is not None


def _passed(result) -> bool:
    return result is True


# (module, class or None, attribute, layer name, outcome counted as positive)
# Functions are wrapped at the module that calls them, so a call made through
# another binding of the same function is not traced twice.
BINDINGS = (
    ("gf2minor.matroid", None, "rank_of_vectors", "gf2.rank_of_vectors", None),
    ("gf2minor.gf2", "Gf2Matrix", "pivot", "gf2.pivot", None),
    ("gf2minor.matroid", "BinaryMatroid", "apply_ops", "matroid.apply_ops", None),
    ("gf2minor.matroid", "BinaryMatroid", "rank", "matroid.rank", None),
    ("gf2minor.matroid", "BinaryMatroid", "circuits", "matroid.circuits", None),
    ("gf2minor.minors", None, "minimal_supports", "matroid.minimal_supports", None),
    ("gf2minor.minors", None, "element_profiles", "iso.element_profiles", None),
    ("gf2minor.minors", None, "match_circuits", "iso.match_circuits", _found),
    ("gf2minor.minors", None, "find_minor_witness", "minors.find_minor_witness", _found),
    ("gf2minor.minors", None, "verify_witness", "minors.verify_witness", _passed),
    ("gf2minor.minors", None, "is_graphic", "minors.is_graphic", None),
    ("gf2minor.certify", None, "find_minor_witness", "minors.find_minor_witness", _found),
    ("gf2minor.certify", None, "verify_witness", "minors.verify_witness", _passed),
    ("gf2minor.certify", None, "replay_case", "certify.replay_case", None),
    ("gf2minor.catalog", None, "get_named", "catalog.get_named", None),
    ("gf2minor.catalog", None, "parse_matrix_file", "catalog.parse_matrix_file", None),
    ("gf2minor.cli", None, "execute_command", "cli.execute_command", None),
    ("gf2minor.cli", None, "is_graphic", "minors.is_graphic", None),
)

# Layers reported as <name>.calls, <name>.s (inclusive) and <name>.self_s.
TIMED_LAYERS = (
    "gf2.rank_of_vectors", "matroid.apply_ops", "matroid.rank",
    "matroid.circuits", "matroid.minimal_supports", "iso.element_profiles",
    "iso.match_circuits", "minors.find_minor_witness", "minors.verify_witness",
    "minors.is_graphic", "catalog.get_named", "catalog.parse_matrix_file",
    "certify.replay_case", "cli.execute_command",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("l")
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.positive: Counter[str] = Counter()
        self._stack = [-1]
        self._recording = [True]
        self._saved: list[tuple[object, str, object]] = []

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, layer: str, outcome):
        idx = self._index(layer)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack, recording, positive = self._stack, self._recording, self.positive
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recording[0]:
                return fn(*args, **kwargs)
            sid = len(start)
            parent.append(stack[-1])
            names.append(idx)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                positive[layer] += 1
            return result

        return traced

    def install(self) -> None:
        for module, cls, attr, layer, outcome in BINDINGS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, outcome))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, e.g. one per query."""
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(self._index(name))
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[sid] = perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._recording[0] = False
        try:
            yield
        finally:
            self._recording[0] = True

    # -- results ------------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as text, one per line: id, parent id (-1 for none), name,
        start and duration in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("id parent name start_us duration_us\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid} {self.parent[sid]} {self.names[self.name[sid]]} "
                         f"{round((self.start[sid] - t0) * 1e6)} "
                         f"{round((self.end[sid] - self.start[sid]) * 1e6)}\n")

    def totals(self) -> tuple[dict, Counter, Counter]:
        """Aggregate the spans by name.

        Returns (name -> (calls, inclusive s, self s), number of spans per
        (name, parent name), number of distinct parent spans per (name,
        parent name)).  Self time is a span's duration minus the time its
        child spans cover.  Inclusive time counts only the outermost span of
        a name, so a recursive call is not counted twice.
        """
        n = len(self.start)
        parent, name, start, end = self.parent, self.name, self.start, self.end
        child = array("d", bytes(8 * n))
        ancestors = array("Q", bytes(8 * n))  # bit i: a span of name i is above
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        edges: Counter[tuple[int, int]] = Counter()
        callers: set[tuple[int, int]] = set()
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
                ancestors[sid] = ancestors[p] | (1 << name[p])
                edges[name[sid], name[p]] += 1
                callers.add((name[sid], p))
        for sid in range(n):
            i = name[sid]
            dur = end[sid] - start[sid]
            calls[i] += 1
            own[i] += dur - child[sid]
            if not (ancestors[sid] >> i) & 1:
                incl[i] += dur
        names = self.names
        per_name = {nm: (calls[i], incl[i], own[i]) for i, nm in enumerate(names)}
        pairs = Counter({(names[c], names[p]): k for (c, p), k in edges.items()})
        distinct = Counter((names[c], names[name[p]]) for c, p in callers)
        return per_name, pairs, distinct

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, inclusive and self time, outcomes and search ratios."""
        per_name, pairs, distinct = self.totals()
        out: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            calls, incl, own = per_name.get(layer, (0, 0.0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = incl
            out[f"{layer}.self_s"] = own
        out["gf2.pivot.calls"] = per_name.get("gf2.pivot", (0,))[0]
        out["iso.match_circuits.hits"] = self.positive["iso.match_circuits"]
        out["iso.match_circuits.hit_ratio"] = _ratio(
            out["iso.match_circuits.hits"], out["iso.match_circuits.calls"])
        out["minors.find_minor_witness.hits"] = self.positive["minors.find_minor_witness"]
        out["minors.verify_witness.passed"] = self.positive["minors.verify_witness"]

        # Search stages, read from the spans a find_minor_witness span caused
        # directly: each contract set is rank-checked (matroid.rank), applied
        # when independent (matroid.apply_ops), and its survivor candidates
        # reach minimal_supports and then element_profiles.  The first
        # element_profiles call of each search profiles the target itself.
        fmw = "minors.find_minor_witness"
        checked = pairs["matroid.rank", fmw]
        applied = pairs["matroid.apply_ops", fmw]
        supports = pairs["matroid.minimal_supports", fmw]
        profiles = (pairs["iso.element_profiles", fmw]
                    - distinct["iso.element_profiles", fmw])
        out["minors.search.independent_ratio"] = _ratio(applied, checked)
        out["minors.search.supports_per_contract_set"] = _ratio(supports, applied)
        out["minors.search.profile_pass_ratio"] = _ratio(profiles, supports)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
