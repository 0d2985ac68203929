"""Pool a stack of per-slice embeddings into one volume embedding.

A stack is a [..., n, d_model] Tensor: row i holds slice i, and leading axes
index the volumes of a batch with the same slice count n. Two modes:
"attention" adds a learnable per-position encoding to the stack, runs one
multi-head self-attention layer over the slices (no residual, no layer
norm), and averages the output rows; "gap" is the plain order-invariant mean
used as the ablation baseline.
"""

from __future__ import annotations

import math
from typing import Literal

from . import diffmath as dm
from .config import TrainConfig
from .diffmath import ParamGroup, Tape, Tensor
from .errors import CapacityError, ConfigurationError, DimensionError, InputError

PoolMode = Literal["attention", "gap"]

POOL_MODES = ("attention", "gap")


def adapter_shapes(cfg: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Position table, then wq/wk/wv per head, then the output projection.

    attention_pool reads the heads off this order, so it is part of the layout.
    """
    shapes = {"pe_table": (cfg.s_max, cfg.d_model)}  # row i encodes slice position i
    for h in range(cfg.heads):
        for w in ("wq", "wk", "wv"):
            shapes[f"h{h}.{w}"] = (cfg.d_model, cfg.d_head)
    shapes["wo"] = (cfg.heads * cfg.d_head, cfg.d_model)
    return shapes


def _slice_count(stack: Tensor, who: str) -> int:
    """n of a [..., n, d] stack; an empty stack is an InputError."""
    if stack.data.ndim < 2:
        raise DimensionError(f"{who}: expected a [..., n, d] stack, got shape {stack.shape}")
    if stack.shape[-2] < 1:
        raise InputError(f"{who}: empty slice stack")
    return stack.shape[-2]


def attention_pool(stack: Tensor, params: ParamGroup, train_mode: bool = False,
                   dropout_rate: float = 0.0, rng=None, tape: Tape | None = None) -> Tensor:
    """Position-aware attention over slices, then mean over the output rows;
    [..., n, d_model] -> [..., d_model].

    The heads run together: each of q, k and v is one product with its heads'
    weights side by side, in table order, split into heads by a reshape.
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

    w = list(params.values())[1:-1]  # h0.wq, h0.wk, h0.wv, h1.wq, ...
    heads, d_head = len(w) // 3, w[0].value.shape[1]

    def per_head_t(kind: int) -> Tensor:
        # z @ [h0.w | h1.w | ...], transposed and split: [..., heads, d_head, n]
        x = dm.matmul(z, dm.concat_cols(w[kind::3], tape), tape)
        return dm.reshape(dm.transpose(x, tape), (*lead, heads, d_head, n), tape)

    q = dm.transpose(per_head_t(0), tape)                # [..., heads, n, d_head]
    k_t, v_t = per_head_t(1), per_head_t(2)
    scores = dm.scale(dm.matmul(q, k_t, tape), 1.0 / math.sqrt(d_head), tape)
    attn = dm.softmax_rows(scores, tape)                 # rows sum to 1
    out_t = dm.matmul(v_t, dm.transpose(attn, tape), tape)  # (attn @ v) transposed
    heads_out = dm.transpose(dm.reshape(out_t, (*lead, heads * d_head, n), tape), tape)

    merged = dm.matmul(heads_out, params["wo"], tape)    # [..., n, d_model]
    merged = dm.dropout(merged, dropout_rate, train_mode, rng, tape)
    return dm.mean_rows(merged, tape)


def gap_pool(stack: Tensor, tape: Tape | None = None) -> Tensor:
    """Order-invariant mean over slice embeddings, [..., n, d] -> [..., d];
    bitwise identical for any permutation of the slices."""
    _slice_count(stack, "gap_pool")
    return dm.mean_rows(stack, tape)


def pool(stack: Tensor, mode: str, params: ParamGroup | None = None,
         train_mode: bool = False, dropout_rate: float = 0.0, rng=None,
         tape: Tape | None = None) -> Tensor:
    """Dispatch on pool mode; "attention" requires adapter params."""
    if mode not in POOL_MODES:
        raise ConfigurationError(f"pool mode must be one of {POOL_MODES}, got {mode!r}")
    if mode == "gap":
        return gap_pool(stack, tape)
    if params is None:
        raise ConfigurationError("attention pooling requires adapter params")
    return attention_pool(stack, params, train_mode, dropout_rate, rng, tape)
