"""Span recorder for the traced benchmark run.

``install`` wraps public nmcollide functions, class constructors and two
methods from outside the package: each wrapped call records a span
(id, name, start, end, parent, thread, run id, work). A function imported
by name into another module (``from .x import y``) is rebound there too,
so calls from ``cli`` and ``verify`` are seen. Spans stay in memory until
the run ends.

A span opened on a thread with no open span of its own (a worker of the
CLI's thread pool) takes the enclosing ``cli.main`` span as its parent.
Self time is a span's duration minus the union of its children's
intervals, so children that overlap on several threads are not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    run: int
    work: Optional[dict]  # named amounts of work done by the call, where the target defines them


def _steps(args, kwargs, result):
    return {"steps": args[0].n_steps}


def _series_work(args, kwargs, result):
    order = result.truncation_order
    return {"orders": order, "point_orders": len(result.maps) * order}


def _maps(args, kwargs, result):
    return {"maps": len(args[0])}


# (module, attribute, span name, work) for module-level functions
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("jaynes_cummings", "beta_pair", "jaynes_cummings.beta_pair", None),
    ("jaynes_cummings", "beta1", "jaynes_cummings.beta1", None),
    ("jaynes_cummings", "beta2", "jaynes_cummings.beta2", None),
    ("jaynes_cummings", "lambda_jc_channel", "jaynes_cummings.lambda_jc_channel", None),
    ("jaynes_cummings", "lambda_jc", "jaynes_cummings.lambda_jc", None),
    ("quantum", "kraus_from_choi", "quantum.kraus_from_choi", None),
    ("quantum", "choi_of", "quantum.choi_of", None),
    ("quantum", "apply_channel", "quantum.apply_channel", None),
    ("quantum", "trace_distance", "quantum.trace_distance", None),
    ("collisions", "run_discrete", "collisions.pure", _steps),
    ("collisions", "run_discrete_thermal", "collisions.thermal", _steps),
    ("continuum", "lambda_series", "continuum.series", _series_work),
    ("continuum", "build_kernel_map", "continuum.build_kernel_map", None),
    ("continuum", "build_thermal_kernel_map", "continuum.build_thermal_kernel_map", None),
    ("verify", "certify_cpt", "verify.certify_cpt", _maps),
    ("verify", "convergence_study", "verify.convergence_study", None),
)

# (module, class, attribute, span name): constructors and methods, wrapped on the class
METHODS = (
    ("quantum", "DensityOperator", "__init__", "quantum.DensityOperator"),
    ("quantum", "KrausChannel", "__init__", "quantum.KrausChannel"),
    ("quantum", "ChoiMatrix", "__init__", "quantum.ChoiMatrix"),
    ("quantum", "ChoiMatrix", "min_eigenvalue", "quantum.min_eigenvalue"),
    ("continuum", "DynamicalMap", "choi", "continuum.choi"),
)

ROOT = "cli.main"


class Recorder:
    """Collects spans while ``active``; wrapped calls pass straight through otherwise."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        rec = self
        is_root = name == ROOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack()
            parent = stack[-1] if stack else rec._root
            sid = next(rec._ids)
            stack.append(sid)
            if is_root:
                rec._root = sid
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    rec._root = None
                amount = work(args, kwargs, result) if work and result is not None else None
                rec.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), rec.run_id, amount)
                )

        return traced


def package_modules(package) -> list:
    """The package and every module in it, imported."""
    names = [info.name for info in pkgutil.iter_modules(package.__path__)]
    return [package] + [importlib.import_module(f"{package.__name__}.{n}") for n in names]


def install(recorder: Recorder, package) -> list:
    """Wrap every target that exists; return (owner, attribute, original) to undo it.

    A target missing from the package is skipped, so its metrics read 0.
    """
    modules = package_modules(package)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    undo = []
    for mod_name, attr, span_name, work in FUNCTIONS:
        original = getattr(by_name.get(mod_name), attr, None)
        if original is None:
            continue
        wrapped = recorder.wrap(span_name, original, work)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    for mod_name, cls_name, attr, span_name in METHODS:
        cls = getattr(by_name.get(mod_name), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            continue
        setattr(cls, attr, recorder.wrap(span_name, original))
        undo.append((cls, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# --- analysis -----------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's (clipped) intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - union_length(k for k in kids if k[1] > k[0])
    return out


def thread_overlap(spans) -> float:
    """Summed duration of pool-thread spans under cli.main minus the union of their intervals."""
    roots = {s.id: s.thread for s in spans if s.name == ROOT}
    total = 0.0
    for root_id, root_thread in roots.items():
        pool = [(s.start, s.end) for s in spans if s.parent == root_id and s.thread != root_thread]
        total += sum(b - a for a, b in pool) - union_length(pool)
    return total


class Summary(NamedTuple):
    calls: dict  # span name -> number of spans
    self_s: dict  # span name -> summed self time
    inclusive_s: dict  # span name -> summed duration of its spans whose parent has another name
    work: dict  # (span name, amount name) -> summed amount
    layer_self_s: dict  # layer -> summed self time
    layer_outer_s: dict  # layer -> summed duration of spans whose parent is in another layer
    overlap_s: float
    spans: int


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> Summary:
    """Per-name and per-layer totals over one traced iteration."""
    own = self_times(spans)
    name_of = {s.id: s.name for s in spans}
    calls, self_s, inclusive, work = (defaultdict(float) for _ in range(4))
    layer_self, layer_outer = defaultdict(float), defaultdict(float)
    for s in spans:
        parent_name = name_of.get(s.parent, "")
        layer = _layer(s.name)
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        layer_self[layer] += own[s.id]
        if parent_name != s.name:
            inclusive[s.name] += s.end - s.start
        if _layer(parent_name) != layer:
            layer_outer[layer] += s.end - s.start
        for key, amount in (s.work or {}).items():
            work[s.name, key] += amount
    return Summary(
        calls=dict(calls), self_s=dict(self_s), inclusive_s=dict(inclusive), work=dict(work),
        layer_self_s=dict(layer_self), layer_outer_s=dict(layer_outer),
        overlap_s=thread_overlap(spans), spans=len(spans),
    )


def write_spans(path, spans) -> None:
    """Spans as CSV, one per line, times relative to the first span's start."""
    origin = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,thread,run,work\n")
        for s in spans:
            fh.write(
                f"{s.id},{s.name},{s.start - origin:.9f},{s.end - origin:.9f},"
                f"{'' if s.parent is None else s.parent},{s.thread},{s.run},"
                f"{' '.join(f'{k}={v}' for k, v in (s.work or {}).items())}\n"
            )
