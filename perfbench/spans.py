"""Span tracing for the traced benchmark run.

The tracer wraps public functions of volalign from outside the package: it
replaces module attributes and class methods for the duration of one
operation and restores them afterwards. Every wrapped call becomes a span
(name, start, end, parent span, group), where the group is one optimiser
step or one evaluation row (a new group starts at each ``Adam.step`` exit
and each ``extract_embeddings`` entry). Self time is a span's duration minus the time
of its child spans. Backward time is attributed to the diffmath op that
recorded the tape entry, by wrapping the rule passed to ``Tape.record``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Public diffmath ops. An op that a later version deletes is skipped and
# reads 0 calls.
DIFFMATH_OPS = ("matmul", "vecmat", "transpose", "add", "sub", "scale", "relu",
                "softmax_rows", "logsumexp_rows", "l2_normalize_rows", "mean_rows",
                "mean_all", "take_rows", "take_diag", "concat_cols", "stack_rows",
                "dropout")

# Layer functions as (module, attribute), plus (module, class.method) entries.
LAYER_FUNCS = (
    ("slice_pool", "attention_pool"), ("slice_pool", "gap_pool"),
    ("encoders", "encode_image2d"), ("encoders", "encode_slices"),
    ("encoders", "encode_text"),
    ("datapipe", "load_volume"), ("datapipe", "preprocess_volume"),
    ("datapipe", "resize_bilinear"),
    ("contrastive", "batch_loss"),
    ("trainer", "Adam.step"), ("trainer", "save_checkpoint"),
    ("trainer", "snapshot_checkpoint"), ("trainer", "load_checkpoint"),
    ("evalkit", "extract_embeddings"), ("evalkit", "linear_probe_cv"),
    ("evalkit", "top1_match"), ("evalkit", "export_embeddings_csv"),
    ("evalkit", "read_embeddings_csv"),
    ("diffmath", "Tape.backward"),
) + tuple(("diffmath", op) for op in DIFFMATH_OPS)


@contextlib.contextmanager
def patched(owner, attr: str, value):
    """Set owner.attr to value for the duration of the block."""
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


def _resolve(module: str, attr: str):
    """(owner, attribute name, callable) or None when the target is gone."""
    owner = importlib.import_module(f"volalign.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Spans and per-name aggregates of one traced operation."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("q")
        self.group_of: array = array("q")
        self.group = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.tape_records = 0
        self.volumes: set[str] = set()
        self.slices = 0
        self.checkpoint_bytes = 0

    def next_group(self) -> None:
        self.group += 1

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.group_of.append(self.group)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[idx] = t1
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, kwargs)
            return out

        return traced

    def _current_name(self) -> str:
        return self.names[self.name_of[self._stack[-1][0]]] if self._stack else "?"

    # argument hooks for the per-volume and per-slice ratios
    def _on_load(self, args, kwargs):
        self.volumes.add(str(args[0] if args else kwargs.get("path")))

    def _on_preprocess(self, args, kwargs):
        self.slices += getattr(args[0] if args else kwargs.get("volume"), "n", 0)

    def _on_save(self, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        self.checkpoint_bytes += os.path.getsize(path)

    def _record_wrapper(self, record):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(record)
        def traced_record(tape, out, inputs, backward):
            tracer.tape_records += 1
            op = tracer._current_name()

            def timed_backward(g, accum):
                t0 = clock()
                backward(g, accum)
                dt = clock() - t0
                tracer.bwd_s[op] += dt
                if tracer._stack:  # the enclosing Tape.backward span
                    tracer._stack[-1][1] += dt

            return record(tape, out, inputs, timed_backward)

        return traced_record

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        hooks = {"datapipe.load_volume": (self._on_load, None),
                 "datapipe.preprocess_volume": (self._on_preprocess, None),
                 "trainer.save_checkpoint": (None, self._on_save),
                 "trainer.Adam.step": (None, lambda args, kwargs: self.next_group()),
                 "evalkit.extract_embeddings": (lambda args, kwargs: self.next_group(), None)}
        with contextlib.ExitStack() as stack:
            for module, attr in LAYER_FUNCS:
                target = _resolve(module, attr)
                if target is None:
                    continue
                owner, name, fn = target
                key = f"{module}.{attr}"
                before, after = hooks.get(key, (None, None))
                stack.enter_context(patched(owner, name, self._wrap(key, fn, before, after)))
            record = _resolve("diffmath", "Tape.record")
            if record is not None:
                owner, name, fn = record
                stack.enter_context(patched(owner, name, self._record_wrapper(fn)))
            yield self

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this operation (self times in ms)."""
        m: dict[str, float] = {}
        for module, attr in LAYER_FUNCS:
            key = f"{module}.{attr}"
            m[f"{key}.calls"] = float(self.calls[key])
            m[f"{key}.ms"] = self.self_s[key] * 1e3
            if module == "diffmath" and attr in DIFFMATH_OPS:
                m[f"{key}.bwd_ms"] = self.bwd_s[key] * 1e3
        steps = self.calls["trainer.Adam.step"]
        m["diffmath.tape_records_per_step"] = self.tape_records / steps if steps else 0.0
        volumes = len(self.volumes)
        m["datapipe.preprocess_per_volume"] = (
            self.calls["datapipe.preprocess_volume"] / volumes if volumes else 0.0)
        m["encoders.encode_slices_per_volume"] = (
            self.calls["encoders.encode_slices"] / volumes if volumes else 0.0)
        m["datapipe.resize_bilinear.calls_per_slice"] = (
            self.calls["datapipe.resize_bilinear"] / self.slices if self.slices else 0.0)
        m["trainer.save_checkpoint.bytes"] = float(self.checkpoint_bytes)
        return m


def save_spans(tracers: list[Tracer], path: Path) -> int:
    """Write the spans of all tracers to one .npz file; returns the span count.

    Columns: name (index into ``names``), start and end (perf_counter
    seconds), parent (row index, -1 for a root span), group (step or row id)
    and op (index of the traced operation).
    """
    names = sorted({n for t in tracers for n in t.names})
    index = {n: i for i, n in enumerate(names)}
    cols = {"name": [], "start": [], "end": [], "parent": [], "group": [], "op": []}
    offset = 0
    for op, t in enumerate(tracers):
        remap = np.array([index[n] for n in t.names], dtype=np.int32)
        cols["name"].append(remap[np.frombuffer(t.name_of, dtype=np.int32)])
        cols["start"].append(np.frombuffer(t.start, dtype=np.float64))
        cols["end"].append(np.frombuffer(t.end, dtype=np.float64))
        parent = np.frombuffer(t.parent, dtype=np.int64)
        cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
        cols["group"].append(np.frombuffer(t.group_of, dtype=np.int64))
        cols["op"].append(np.full(len(t.start), op, dtype=np.int32))
        offset += len(t.start)
    arrays = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
    np.savez(path, names=np.array(names), **arrays)
    return offset
