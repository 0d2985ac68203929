#!/usr/bin/env python3
"""Tour of the math core: ops on float64 arrays, the gradient tape, and the
finite-difference oracle that keeps every backward rule honest."""

import numpy as np

from volalign import diffmath as dm
from volalign.diffmath import Param, Tape


def main():
    print("== forward ops ==")
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.array([[1.0], [1.0]])
    print("matmul([[1,2],[3,4]], [[1],[1]]) ->", dm.matmul(x, w).ravel())
    print("softmax of equal logits        ->", dm.softmax_rows(np.array([[5.0, 5.0, 5.0, 5.0]])))
    print("l2 normalize of [3, 4]         ->", dm.l2_normalize_rows(np.array([[3.0, 4.0]])))

    print("\n== one forward/backward pass ==")
    rng = dm.make_rng(0, "demo1")
    a = Param(rng.normal(size=(3, 4)), name="a")
    b = Param(rng.normal(size=(4, 2)), name="b")
    tape = Tape()
    loss = dm.mean_all(dm.relu(dm.matmul(a, b, tape), tape), tape)
    tape.backward(loss)
    print(f"loss = {loss.item():.6f}")
    print(f"grad wrt a: shape {a.grad.shape}, |g|_max = {np.abs(a.grad).max():.4f}")

    print("\n== gradient oracle ==")

    def f(tape):
        return dm.mean_all(dm.relu(dm.matmul(a, b, tape), tape), tape)

    report = dm.grad_check(f, [a, b], h=1e-5, tol=1e-6)
    print(report)

    print("\n== the oracle catches a corrupted backward rule ==")

    def bad_scale(t, tape):
        out = t.value * 2.0
        if tape is not None:
            tape.record(out, (t,), lambda g, accum: accum(t, g * 3.0))  # wrong factor
        return out

    report = dm.grad_check(lambda tape: dm.mean_all(bad_scale(a, tape), tape), [a], tol=1e-4)
    print(report)


if __name__ == "__main__":
    main()
