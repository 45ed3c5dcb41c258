"""Import-site spans around the public functions of proxitop's six modules.

``Tracer.install`` replaces each traced function at the place it is looked
up at run time: the module attribute for functions that callers reach
through a module global (``proxitop.geometry.polyline_min_distance``), the
name a module imported it under (``proxitop.cli.export_mesh``), or the
class attribute for methods (``ReportDocument.to_json``). ``uninstall``
puts the originals back. Nothing under ``src/`` changes.

Every call records a span (name, job, start, end, parent) in memory. The
tracer keeps per-name call counts, total time and self time (duration less
the time covered by child spans) for every call, and the first
``SPAN_LIMIT`` spans themselves for writing out when the run ends.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

import proxitop.borsuk
import proxitop.cli
import proxitop.geometry
import proxitop.io
import proxitop.proximity
import proxitop.surfaces

MODULES = ("cli", "io", "proximity", "geometry", "borsuk", "surfaces")
SPAN_LIMIT = 100_000


def _size_of_path(index: int):
    def measure(args, kwargs, result):
        return os.path.getsize(args[index])
    return measure


def _len_of_result(args, kwargs, result):
    return len(result)


def _matched_pairs(args, kwargs, result):
    # counted only where a predicate decides antipodality (strings, sheets)
    return len(result.pairs) if result.mode != "points" else 0


# (span name, owner object, attribute, extra measurement or None)
_TARGETS = [
    ("io.export_mesh", proxitop.cli, "export_mesh", _size_of_path(1)),
    ("io.load_points_csv", proxitop.cli, "load_points_csv", None),
    ("io.load_trace_csv", proxitop.cli, "load_trace_csv", _size_of_path(0)),
    ("io.save_curve_csv", proxitop.cli, "save_curve_csv", _size_of_path(0)),
    ("io.file_digest", proxitop.cli, "file_digest", None),
    ("io.report_to_json", proxitop.io.ReportDocument, "to_json", _len_of_result),
    ("io.mesh_document", proxitop.io.MeshDocument, "__post_init__", None),
    ("proximity.check_axioms", proxitop.proximity, "check_axioms", None),
    ("proximity.dnear", proxitop.proximity, "dnear", None),
    ("proximity.sn", proxitop.proximity, "sn", None),
    ("proximity.snd", proxitop.proximity, "snd", None),
    ("proximity.descriptive_intersection", proxitop.proximity, "descriptive_intersection", None),
    ("proximity.spc_check", proxitop.proximity, "spc_check", None),
    ("proximity.map_region", proxitop.proximity, "map_region", None),
    ("proximity.feature_eval", proxitop.proximity.FeatureMap, "__call__", None),
    ("geometry.sphere_sample", proxitop.geometry, "sphere_sample", None),
    ("geometry.petty_antipodal_set", proxitop.geometry, "petty_antipodal_set", None),
    ("geometry.strings_antipodal", proxitop.borsuk, "strings_antipodal", None),
    ("geometry.worldsheets_antipodal", proxitop.borsuk, "worldsheets_antipodal", None),
    ("geometry.polyline_min_distance", proxitop.geometry, "polyline_min_distance", None),
    ("borsuk.but_search", proxitop.borsuk, "but_search", _matched_pairs),
    ("borsuk.descriptor", proxitop.borsuk.RegionDescriptor, "__call__", None),
    ("borsuk.fixed_point_search", proxitop.borsuk, "fixed_point_search", None),
    ("surfaces.torus_grid", proxitop.surfaces, "torus_grid", None),
    ("surfaces.trace_to_torus_band", proxitop.surfaces, "trace_to_torus_band", None),
    ("surfaces.eeg_twist_lift", proxitop.surfaces, "eeg_twist_lift", None),
    ("surfaces.torus_residual", proxitop.surfaces, "torus_residual", None),
]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(int)
        self.durations = defaultdict(list)  # per-call durations of cli.* spans
        self.spans = []
        self.dropped = 0
        self.job = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    def span(self, name: str, fn, extra=None):
        """fn wrapped so each call records one span named name."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [0.0, tracer._next_id]  # time covered by children, span id
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._record(name, frame, parent, start, end)
            if extra is not None:
                tracer.extra[name] += extra(args, kwargs, result)
            return result

        return traced

    def _record(self, name, frame, parent, start, end):
        d = end - start
        if parent is not None:
            parent[0] += d
        self.calls[name] += 1
        self.total[name] += d
        self.self_time[name] += d - frame[0]
        if name.startswith("cli."):
            self.durations[name].append(d)
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[1], name, self.job, start, end, None if parent is None else parent[1]))
        else:
            self.dropped += 1

    def install(self) -> None:
        for name, owner, attr, extra in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, extra))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"dropped": self.dropped, "fields": ["id", "name", "job", "start", "end", "parent"],
                       "spans": self.spans}, fh)
