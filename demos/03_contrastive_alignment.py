#!/usr/bin/env python3
"""The contrastive objective: cosine similarity logits, temperature, and the
batch loss that pulls matching image-text pairs together."""

import math

import numpy as np

from volalign import contrastive as ct
from volalign.diffmath import make_rng


def main():
    rng = make_rng(0, "demo3")

    print("== similarity matrix ==")
    img = rng.normal(size=(4, 16))
    txt = rng.normal(size=(4, 16))
    sim = ct.similarity_matrix(img, txt, tau=0.07)
    print("logits (cosine / tau), diagonal = matching pairs:")
    print(np.round(sim, 2))

    print("\n== loss landmarks ==")
    for n in (2, 4, 8):
        uniform = ct.info_nce(np.zeros((n, n)))
        print(f"all-equal logits, N={n}: loss = {uniform.item():.6f} (ln N = {math.log(n):.6f})")
    strong = ct.info_nce(np.array([[10.0, 0.0], [0.0, 10.0]]))
    print(f"strong diagonal, N=2:  loss = {strong.item():.3e} (ln(1+e^-10) = "
          f"{math.log(1 + math.exp(-10)):.3e})")

    print("\n== temperature controls sharpness ==")
    img_n = img / np.linalg.norm(img, axis=1, keepdims=True)
    txt_n = txt / np.linalg.norm(txt, axis=1, keepdims=True)
    cos = img_n @ txt_n.T
    for tau in (1.0, 0.2, 0.07):
        loss = ct.info_nce(cos / tau)
        print(f"tau = {tau:<4}: loss = {loss.item():.4f}")

    print("\n== aligned embeddings score better than random ones ==")
    aligned = ct.batch_loss(img, img.copy(), tau=0.07, symmetric=True)
    random = ct.batch_loss(img, txt, tau=0.07, symmetric=True)
    print(f"identical pairs: {aligned.item():.4f}   random pairs: {random.item():.4f}")


if __name__ == "__main__":
    main()
