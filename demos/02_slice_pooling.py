#!/usr/bin/env python3
"""Why attention pooling beats a plain mean when slice order matters.

Builds a stack of per-slice embeddings, pools it with global average pooling
and with the attention adapter, and shows how the learnable position table is
the only thing standing between the model and order blindness."""

import numpy as np

from volalign import slice_pool as sp
from volalign import trainer as tr
from volalign.config import TrainConfig
from volalign.diffmath import make_rng

CFG = TrainConfig(d_model=64, heads=4, s_max=8, dropout_rate=0.0)


def main():
    rng = make_rng(0, "demo2")
    mat = rng.normal(size=(8, 64))
    perm = rng.permutation(8)

    print("== global average pooling is order-blind ==")
    g1 = sp.gap_pool(mat)
    g2 = sp.gap_pool(mat[perm])
    print("bitwise identical under permutation:", np.array_equal(g1, g2))

    print("\n== attention with a zeroed position table is equivariant too ==")
    adapter = tr.init_group(CFG, "adapter", seed=1)
    adapter["pe_table"].value[...] = 0.0
    a1 = sp.attention_pool(mat, adapter, CFG.heads)
    a2 = sp.attention_pool(mat[perm], adapter, CFG.heads)
    print(f"max |difference| = {np.abs(a1 - a2).max():.2e}  (pure self-attention"
          " cannot see order)")

    print("\n== the random position table injects order information ==")
    adapter = tr.init_group(CFG, "adapter", seed=1)
    a1 = sp.attention_pool(mat, adapter, CFG.heads)
    a2 = sp.attention_pool(mat[perm], adapter, CFG.heads)
    print(f"max |difference| = {np.abs(a1 - a2).max():.2e}  (already at"
          " initialization, and it grows with training)")

    print("\n== attention weights are a proper distribution per head ==")
    z = mat + adapter["pe_table"].value
    q = z @ adapter["wq"].value[:, :CFG.d_head]  # head 0
    k = z @ adapter["wk"].value[:, :CFG.d_head]
    scores = q @ k.T / np.sqrt(CFG.d_head)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    print("row sums:", np.round(attn.sum(axis=1), 12))


if __name__ == "__main__":
    main()
