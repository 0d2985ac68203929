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
[n, d_model] rows are kept.
"""

from __future__ import annotations

import math

import numpy as np

from . import datapipe as dp
from . import diffmath as dm
from .config import TrainConfig
from .diffmath import ParamGroup, Tape
from .errors import InputError


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
    is encoded from it, a miss is stored in it."""
    hits = [p for p in dict.fromkeys(paths) if volumes is not None and (p, size) in volumes]
    out = dict(zip(hits, encode_frozen([volumes[p, size] for p in hits], params, s_max)))
    for done, pieces in dp.preprocessed_batches([p for p in paths if p not in out], size):
        if volumes is not None:
            volumes.update(((p, size), v) for p, v in zip(done, pieces))
        out.update(zip(done, encode_frozen(pieces, params, s_max)))
        del pieces  # before the next batch is preprocessed
    return [out[p] for p in paths]
