"""Pool a stack of per-slice embeddings into one volume embedding.

A stack is a [..., n, d_model] array: row i holds slice i, and leading axes
index the volumes of a batch with the same slice count n. attention_pool adds
a learnable per-position encoding to the stack, runs one multi-head
self-attention layer over the slices (no residual, no layer norm), and
averages the output rows; gap_pool is the plain order-invariant mean used as
the ablation baseline.
"""

from __future__ import annotations

import math

import numpy as np

from . import diffmath as dm
from .config import TrainConfig
from .diffmath import ParamGroup, Tape
from .errors import CapacityError, DimensionError, InputError

POOL_MODES = ("attention", "gap")


def adapter_shapes(cfg: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Position table, the q, k and v projections, then the output projection.

    Head h of wq, wk and wv is columns h*d_head:(h+1)*d_head.
    """
    qkv = (cfg.d_model, cfg.heads * cfg.d_head)
    return {"pe_table": (cfg.s_max, cfg.d_model),  # row i encodes slice position i
            "wq": qkv, "wk": qkv, "wv": qkv,
            "wo": (cfg.heads * cfg.d_head, cfg.d_model)}


def draw_adapter(cfg: TrainConfig, draw) -> dict:
    """Initial values in the order and shapes of adapter_shapes; draw(shape)
    returns a fresh normal sample.

    The draw runs head by head, q, k and v within each head, so a seed gives
    the values of the per-head tables of checkpoint format 2; each head then
    moves to its columns.
    """
    pe_table = draw((cfg.s_max, cfg.d_model))
    per_head = draw((cfg.heads, 3, cfg.d_model, cfg.d_head))
    wq, wk, wv = per_head.transpose(1, 2, 0, 3).reshape(3, cfg.d_model, -1)
    wo = draw((cfg.heads * cfg.d_head, cfg.d_model))
    return {"pe_table": pe_table, "wq": wq, "wk": wk, "wv": wv, "wo": wo}


def _slice_count(stack: np.ndarray, who: str) -> int:
    """n of a [..., n, d] stack; an empty stack is an InputError."""
    if stack.ndim < 2:
        raise DimensionError(f"{who}: expected a [..., n, d] stack, got shape {stack.shape}")
    if stack.shape[-2] < 1:
        raise InputError(f"{who}: empty slice stack")
    return stack.shape[-2]


def attention_pool(stack: np.ndarray, params: ParamGroup, heads: int, train_mode: bool = False,
                   dropout_rate: float = 0.0, rng=None, tape: Tape | None = None) -> np.ndarray:
    """Position-aware attention over slices, then mean over the output rows;
    [..., n, d_model] -> [..., d_model].

    The heads run together: each of q, k and v is one product with its
    table, split into `heads` heads by a reshape. A table's width does not
    tell how many heads it holds, so `heads` is the config's.
    """
    n = _slice_count(stack, "attention_pool")
    pe_table = params["pe_table"]
    s_max = pe_table.value.shape[0]
    if n > s_max:
        raise CapacityError(
            f"attention_pool: {n} slices exceed the position table capacity {s_max}")

    pe_n = dm.take_rows(pe_table, n, tape)
    z = dm.add(stack, pe_n, tape)  # [..., n, d_model]
    lead = z.shape[:-2]
    d_head = params["wq"].value.shape[1] // heads

    def per_head_t(w: str) -> np.ndarray:
        # z @ w, transposed and split: [..., heads, d_head, n]
        x = dm.matmul(z, params[w], tape)
        return dm.reshape(dm.transpose(x, tape), (*lead, heads, d_head, n), tape)

    q = dm.transpose(per_head_t("wq"), tape)             # [..., heads, n, d_head]
    k_t, v_t = per_head_t("wk"), per_head_t("wv")
    scores = dm.scale(dm.matmul(q, k_t, tape), 1.0 / math.sqrt(d_head), tape)
    attn = dm.softmax_rows(scores, tape)                 # rows sum to 1
    out_t = dm.matmul(v_t, dm.transpose(attn, tape), tape)  # (attn @ v) transposed
    heads_out = dm.transpose(dm.reshape(out_t, (*lead, heads * d_head, n), tape), tape)

    merged = dm.matmul(heads_out, params["wo"], tape)    # [..., n, d_model]
    merged = dm.dropout(merged, dropout_rate, train_mode, rng, tape)
    return dm.mean_rows(merged, tape)


def gap_pool(stack: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """Order-invariant mean over slice embeddings, [..., n, d] -> [..., d];
    bitwise identical for any permutation of the slices."""
    _slice_count(stack, "gap_pool")
    return dm.mean_rows(stack, tape)
