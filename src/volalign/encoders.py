"""Shared-space embedding producers.

Two towers meet in one d_model space: a frozen, seed-determined hashed-bag
text encoder of caption text, which it tokenizes under its own table's
vocabulary (word identity is all the short templated captions need), and a
trainable patch + MLP image encoder for single slices. A batch of images is
a leading axis of the image array, so encode_image2d of a volume's
[n, H, W] voxel array is its [n, d_model] slice embeddings, the stack the
slice-pooling adapter takes; patchify cuts the array into patch rows.
encode_frozen is the frozen path (no rng, so no dropout) over many voxel
arrays: those of one slice count share each encode_image2d call, at most
datapipe.SLICE_BATCH slices at a time. numpy multiplies a stack one matrix
at a time, so every slice keeps the bits it gets when encoded alone.
encode_samples streams sample files through it: each batch that
datapipe.preprocessed_batches flushes is encoded at once, and only the
[n, d_model] rows are kept. With two usable CPUs and os.fork, from
FORK_MIN_SAMPLES distinct samples on, a forked child encodes the first half
of them while this process encodes the rest (_in_two, the one place that
forks; the ablation's probes use it too). Neither side's bits depend on the
other, so the rows are those of the serial path.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback

import numpy as np

from . import datapipe as dp
from . import diffmath as dm
from .config import TrainConfig
from .diffmath import ParamGroup, Tape
from .errors import InputError, LoadError, VolalignError

# distinct samples from which encode_samples splits its work across two
# processes; below it the fork costs more than it saves (README "Frozen
# encoding" has the measurement)
FORK_MIN_SAMPLES = 8 * dp.SLICE_BATCH


def text_shapes(cfg: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Frozen lookup table + projection, in init draw order."""
    return {"embed_table": (cfg.vocab, cfg.d_text),
            "proj": (cfg.d_text, cfg.d_model)}


def image_shapes(cfg: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Patch projection, hidden layer and output projection, in init draw order."""
    return {"patch_proj": (cfg.patch_size * cfg.patch_size, cfg.d_hidden),
            "mlp_hidden": (cfg.d_hidden, cfg.d_hidden),
            "out_proj": (cfg.d_hidden, cfg.d_model)}


def encode_text(text: str, params: ParamGroup) -> np.ndarray:
    """Mean of the embedding rows of text's tokens, hashed mod the table's
    row count, projected into the shared space.

    Frozen path: never records on a tape. The mean is exactly rounded, so any
    permutation of the same words gives a bitwise identical result.
    """
    table = params["embed_table"].value
    rows = table[np.asarray(dp.tokenize(text, len(table)), dtype=np.intp)]
    return dm.matmul(dm.mean_rows(rows), params["proj"])


def patchify(image, patch_size: int) -> np.ndarray:
    """Split [..., H, W] images into non-overlapping flattened patches,
    row-major: [..., (H/p)*(W/p), p*p]."""
    a = np.asarray(image, dtype=np.float64)
    if a.ndim < 2:
        raise InputError(f"patchify expects an image, got shape {a.shape}")
    *lead, h, w = a.shape
    p = patch_size
    if h % p != 0 or w % p != 0:
        raise InputError(f"patch size {p} does not divide image shape {(h, w)}")
    return (a.reshape(*lead, h // p, p, w // p, p)
             .swapaxes(-3, -2)
             .reshape(*lead, (h // p) * (w // p), p * p))


def encode_image2d(image, params: ParamGroup, dropout_rate: float = 0.0, rng=None,
                   tape: Tape | None = None) -> np.ndarray:
    """Patch projection -> relu -> hidden layer -> relu -> output projection
    -> mean over patches; [..., H, W] -> [..., d_model].

    The output projection is linear, so applying it before the mean gives the
    same embedding as after; applied per patch, it keeps each image of a batch
    a separate matrix product. Given an rng, dropout acts on the hidden layer;
    without one the output is a pure function of the image and parameters.
    """
    patch_proj = params["patch_proj"]
    patch_size = math.isqrt(patch_proj.value.shape[0])
    patches = patchify(image, patch_size)  # constant w.r.t. params
    h1 = dm.relu(dm.matmul(patches, patch_proj, tape), tape)
    h2 = dm.relu(dm.matmul(h1, params["mlp_hidden"], tape), tape)
    h2 = dm.dropout(h2, dropout_rate, rng, tape)
    return dm.mean_rows(dm.matmul(h2, params["out_proj"], tape), tape)


def slice_batches(counts: list[int], s_max: int) -> list[list[int]]:
    """Indices of volumes with these slice counts, grouped by count and cut
    into batches of at most SLICE_BATCH slices (one volume at least)."""
    by_count: dict[int, list[int]] = {}
    for i, n in enumerate(counts):
        if not 1 <= n <= s_max:
            raise InputError(f"slice count {n} outside [1, {s_max}]")
        by_count.setdefault(n, []).append(i)
    batches = []
    for n, idxs in by_count.items():
        size = max(1, dp.SLICE_BATCH // n)
        batches += [idxs[s:s + size] for s in range(0, len(idxs), size)]
    return batches


def encode_frozen(volumes: list[np.ndarray], params: ParamGroup, s_max: int) -> list[np.ndarray]:
    """Eval-mode slice embeddings of many volumes of one image size: one
    [n, d_model] array per volume, in input order, bit for bit what
    encode_image2d gives on that volume alone; one encode_image2d call per
    slice_batches batch."""
    out: list[np.ndarray] = [None] * len(volumes)
    for batch in slice_batches([len(v) for v in volumes], s_max):
        emb = encode_image2d(np.stack([volumes[i] for i in batch]), params)
        for i, rows in zip(batch, emb):
            out[i] = rows
    return out


def encode_samples(paths, size: int, params: ParamGroup, s_max: int,
                   volumes: dict | None = None) -> list[np.ndarray]:
    """encode_frozen of each path's sample, preprocessed to size x size, in
    input order. Each datapipe.preprocessed_batches batch is encoded as soon
    as it is flushed, and only its [n, d_model] rows are kept. `volumes`
    caches preprocessed volumes across calls, keyed by (path, size): a hit
    is encoded from it, a miss is stored in it.

    From FORK_MIN_SAMPLES distinct paths on, _in_two may split them: a
    forked child encodes the first half and sends back its rows and the
    volumes it stored in its copy of the memo, which join this process's
    memo. Every row and volume has the bits the serial path gives it, and
    the hits held here keep their identity.
    """
    def encode(part):
        hits = [p for p in part if volumes is not None and (p, size) in volumes]
        rows = dict(zip(hits, encode_frozen([volumes[p, size] for p in hits], params, s_max)))
        misses = [p for p in part if p not in rows]
        for done, pieces in dp.preprocessed_batches(misses, size):
            if volumes is not None:
                volumes.update(((p, size), v) for p, v in zip(done, pieces))
            rows.update(zip(done, encode_frozen(pieces, params, s_max)))
            del pieces  # before the next batch is preprocessed
        return rows, {} if volumes is None else {(p, size): volumes[p, size] for p in misses}

    distinct = list(dict.fromkeys(paths))
    parts = (_in_two(encode, distinct, "encoding", LoadError)
             if len(distinct) >= FORK_MIN_SAMPLES else [encode(distinct)])
    out = {}
    for rows, stored in parts:
        out.update(rows)
        if volumes is not None:
            volumes.update(stored)
    return [out[p] for p in paths]


def _in_two(work, items: list, what: str, error: type[VolalignError]) -> list:
    """The results of work on items, one per part: [work(items)] with one
    usable CPU (os.sched_getaffinity) or without os.fork, else
    [work(first half), work(rest)], the first half worked by a forked child
    while this process works the rest. A typed error is raised as one
    work(items) would raise it: the first half's before the rest's.

    The child sends its result or its typed error back pickled through a
    pipe and always leaves through os._exit; this process reaps it on every
    path, and kills it first when its own half fails untyped. A child that
    ends without a result is `error`, naming its exit status.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if not hasattr(os, "fork") or cpus < 2:
        return [work(items)]

    def attempt(part):
        try:
            return work(part)
        except VolalignError as exc:
            return exc

    half = len(items) // 2
    r, w = os.pipe()
    with open(r, "rb") as reader, open(w, "wb") as writer:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                pickle.dump(attempt(items[:half]), writer, pickle.HIGHEST_PROTOCOL)
                writer.close()
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        writer.close()
        sent = None
        try:
            mine = attempt(items[half:])
            sent = reader.read()
        finally:
            if sent is None:  # this process failed untyped: stop the child
                os.kill(pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise error(f"the {what} child sent no result and ended with exit status {status} "
                    "(a negative status is its signal)")
    parts = [pickle.loads(sent), mine]
    for part in parts:
        if isinstance(part, VolalignError):
            raise part
    return parts
