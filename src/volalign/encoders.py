"""Shared-space embedding producers.

Two towers meet in one d_model space: a frozen, seed-determined hashed-bag
text encoder (word identity is all the short templated captions need) and a
trainable patch + MLP image encoder for single slices. A batch of images is
a leading axis of the image array, so encode_image2d of a volume's
[n, H, W] voxel array is its [n, d_model] slice embeddings, the stack the
slice-pooling adapter takes; patchify turns the array into a Tensor.
encode_frozen is the frozen (eval-mode) path over many voxel arrays: those
of one slice count share each encode_image2d call, at most
datapipe.SLICE_BATCH slices at a time. numpy multiplies a stack one matrix
at a time, so every slice keeps the bits it gets when encoded alone.
"""

from __future__ import annotations

import math

import numpy as np

from . import diffmath as dm
from .config import TrainConfig
from .datapipe import SLICE_BATCH
from .diffmath import ParamGroup, Tape, Tensor
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


def encode_text(token_ids: list[int], params: ParamGroup) -> Tensor:
    """Mean of the looked-up embedding rows, projected into the shared space.

    Frozen path: never records on a tape. The mean is exactly rounded, so any
    permutation of the same token multiset gives a bitwise identical result.
    """
    if not token_ids:
        raise InputError("encode_text: empty token list")
    table = params["embed_table"].value.data
    vocab = table.shape[0]
    for t in token_ids:
        if not 0 <= t < vocab:
            raise InputError(f"encode_text: token id {t} outside [0, {vocab})")
    rows = table[np.asarray(token_ids, dtype=np.intp)]
    bag = dm.mean_rows(Tensor(rows))
    return dm.matmul(bag, params["proj"])


def patchify(image, patch_size: int) -> Tensor:
    """Split [..., H, W] images into non-overlapping flattened patches,
    row-major: [..., (H/p)*(W/p), p*p]."""
    a = np.asarray(image, dtype=np.float64)
    if a.ndim < 2:
        raise InputError(f"patchify expects an image, got shape {a.shape}")
    *lead, h, w = a.shape
    p = patch_size
    if h % p != 0 or w % p != 0:
        raise InputError(f"patch size {p} does not divide image shape {(h, w)}")
    patches = (a.reshape(*lead, h // p, p, w // p, p)
                .swapaxes(-3, -2)
                .reshape(*lead, (h // p) * (w // p), p * p))
    return Tensor(patches)


def encode_image2d(image, params: ParamGroup, train_mode: bool = False,
                   dropout_rate: float = 0.0, rng=None, tape: Tape | None = None) -> Tensor:
    """Patch projection -> relu -> hidden layer -> relu -> output projection
    -> mean over patches; [..., H, W] -> [..., d_model].

    The output projection is linear, so applying it before the mean gives the
    same embedding as after; applied per patch, it keeps each image of a batch
    a separate matrix product. Dropout acts on the hidden activation in train
    mode only; eval mode is a pure function of the image and parameters.
    """
    patch_proj = params["patch_proj"]
    patch_size = math.isqrt(patch_proj.value.shape[0])
    patches = patchify(image, patch_size)  # constant w.r.t. params
    h1 = dm.relu(dm.matmul(patches, patch_proj, tape), tape)
    h2 = dm.relu(dm.matmul(h1, params["mlp_hidden"], tape), tape)
    h2 = dm.dropout(h2, dropout_rate, train_mode, rng, tape)
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
        size = max(1, SLICE_BATCH // n)
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
        for i, rows in zip(batch, emb.data):
            out[i] = rows
    return out
