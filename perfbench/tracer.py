"""Span tracing of `dephwit`'s layers from outside the package.

`Tracer` replaces each traced public function by a timing wrapper under
every name a `dephwit` module holds it by (``dephwit.states.eig_hermitian``,
``dephwit.witness.haar_unitary``, ...) and ``RngHandle.normals`` on its
class, keeps the spans in memory and puts every original back on exit.
Nothing in the package changes. `layer_metrics` turns the spans into the
per-layer metrics.

A span's parent is the innermost open span of its own thread; a span
opened on a thread with none open (a Monte Carlo pool worker) takes the
innermost open span of the thread that installed the tracer. Self time is
a span's duration minus the union of its children's intervals, so
children that overlap on two threads are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import threading
import time
from dataclasses import dataclass

MODULES = ("dephwit", "linalg", "states", "dephasing", "randmat", "witness", "config", "cli")

MC_CALLS = (
    "haar_average_distance_sq",
    "theorem_mc_check",
    "structured_average_distance",
    "twirl_mc",
    "choi_isotropic_check",
)


def _one_or_size(args, kwargs, result):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


def _variates(args, kwargs, result):
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    return math.prod((shape,) if isinstance(shape, int) else shape)


def _bytes_written(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _mc_samples(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        if float(bound.get("t", 1.0)) == 0.0:
            return 0  # structured averages draw nothing at t = 0
        return int(bound["n_samples"])

    return count


# (module, attribute, span name, count function or None); the span name
# gives the layer before the dot
TARGETS = [
    ("linalg", "eig_hermitian", "linalg.eig", None),
    ("states", "random_mixed", "states.build", None),
    ("states", "from_pure", "states.build", None),
    ("states", "classical_state", "states.build", None),
    ("dephasing", "eigenbasis_of_marginal", "dephasing.basis", None),
    ("dephasing", "dephase_total", "dephasing.dephase", None),
    ("randmat", "RngHandle.normals", "randmat.normals", _variates),
    ("randmat", "ginibre", "randmat.ginibre", None),
    ("randmat", "haar_unitary", "randmat.haar", _one_or_size),
    ("randmat", "sample_spectrum", "randmat.spectrum", _one_or_size),
    ("witness", "witness_trajectory", "witness.trajectory", None),
    ("config", "parse_config", "config.parse", None),
    ("cli", "write_output", "cli.write", _bytes_written),
] + [("witness", name, "witness.mc", "mc") for name in MC_CALLS]


@dataclass
class Span:
    ident: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records spans around `dephwit`'s layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread with nothing open belongs to the caller's span
            outer = stack or self._home
            parent = outer[-1] if outer else None
            ident = next(self._ids)
            stack.append(ident)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            n = count(args, kwargs, result) if count else 1
            self.spans.append(Span(ident, parent, name, start, end, threading.get_ident(), n))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            importlib.import_module(m if m == "dephwit" else f"dephwit.{m}") for m in MODULES
        ]
        self._local.stack = self._home
        try:
            for module_name, attr, name, count in TARGETS:
                owner = importlib.import_module(f"dephwit.{module_name}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[method]
                    self._patch(cls, method, self._wrap(original, name, count))
                    continue
                original = getattr(owner, attr)
                if count == "mc":
                    count = _mc_samples(original)
                traced = self._wrap(original, name, count)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, traced)
        except BaseException:
            self._unpatch()
            raise
        return self

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _unpatch(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        self._unpatch()
        self._local.stack = None


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration less the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inner = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.ident, [])]
        out[s.ident] = s.duration - _union_length([iv for iv in inner if iv[1] > iv[0]])
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and seconds from one set of spans."""
    own = self_times(spans)
    by_id = {s.ident: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, field="duration"):
        picked = named(name)
        if field == "self":
            return sum(own[s.ident] for s in picked)
        if field == "count":
            return sum(s.count for s in picked)
        return sum(s.duration for s in picked)

    def mc_root(s: Span) -> int | None:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "witness.mc":
                return s.ident
        return None

    threads: dict[int, set[int]] = {}
    for s in spans:
        if s.name.startswith("randmat."):
            root = mc_root(s)
            if root is not None:
                threads.setdefault(root, set()).add(s.thread)

    return {
        "linalg.eig_calls": len(named("linalg.eig")),
        "linalg.eig_s": total("linalg.eig"),
        "states.build_s": total("states.build", "self"),
        "dephasing.basis_s": total("dephasing.basis", "self"),
        "dephasing.dephase_s": total("dephasing.dephase", "self"),
        "randmat.normals": total("randmat.normals", "count"),
        "randmat.normals_s": total("randmat.normals"),
        "randmat.unitaries": total("randmat.haar", "count"),
        "randmat.haar_s": total("randmat.haar", "self"),
        "randmat.spectra": total("randmat.spectrum", "count"),
        "randmat.spectrum_s": total("randmat.spectrum", "self"),
        "witness.samples": total("witness.mc", "count"),
        "witness.mc_s": total("witness.mc"),
        "witness.self_s": total("witness.mc", "self"),
        "witness.threads": max((len(t) for t in threads.values()), default=0),
        "witness.trajectory_s": total("witness.trajectory", "self"),
        "config.parse_s": total("config.parse"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": total("cli.write", "count"),
    }
