"""Reverse-mode gradients over float64 ndarrays, recorded on a tape.

Everything trainable in this package is expressed through the ops in this
module. Each op takes C-contiguous float64 ndarrays or Params, returns a
C-contiguous float64 ndarray (reshape returns a view, eval-mode dropout its
input) and, when a Tape is supplied, records a backward rule; the tape keys
gradients on the identity of these arrays.

A batch is a leading array axis: matmul, transpose, add, softmax_rows and
mean_rows act on the trailing axes of [..., m, n] arrays, so one call (and
one tape record) covers a whole batch. A weight shared by the batch ([k x n]
in matmul, [m x d] in add) gets its gradient summed over the leading axes.
numpy runs a batched matmul one matrix at a time, so each matrix of a batch
gets the same bits it would get alone. mean_rows sums each column in
ascending order (a compare-exchange network up to 4 rows, np.sort beyond),
so mean-based pooling is bitwise invariant to row order; mean_all and
logsumexp_rows use exactly rounded (fsum) summation. Where numpy would
return a numpy scalar for a 0-d result (mean_all, and add, sub, scale, relu
and dropout on 0-d inputs), the op returns it as a 0-d array instead.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError, InputError

__all__ = [
    "Param",
    "Tape",
    "matmul",
    "transpose",
    "reshape",
    "add",
    "sub",
    "scale",
    "relu",
    "softmax_rows",
    "logsumexp_rows",
    "l2_normalize_rows",
    "mean_rows",
    "mean_all",
    "take_rows",
    "take_diag",
    "concat_rows",
    "dropout",
    "zero_grads",
    "grad_check",
    "GradCheckReport",
    "fnv1a64",
    "derive_seed",
    "make_rng",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data) -> int:
    """64-bit FNV-1a hash of bytes or str; stable across runs and platforms."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _U64
    return h


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit sub-seed for a named subsystem."""
    return fnv1a64(f"{seed}:{label}")


def make_rng(seed: int, label: str) -> np.random.Generator:
    """Counter-based (Philox) generator; same (seed, label) gives the same stream."""
    return np.random.Generator(np.random.Philox(derive_seed(seed, label)))


class Param:
    """A named float64 array with an accumulated gradient. Whether it trains
    is the stage's decision (trainer.TRAINS), not the parameter's.

    The gradient buffer is made, as zeros, at its first accumulation or
    access, so a parameter that never receives a gradient never holds one.
    """

    __slots__ = ("value", "_grad", "name")

    def __init__(self, value, name: str = ""):
        self.value = value
        self._grad: np.ndarray | None = None
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name or '?'}, shape={self.value.shape})"


# One parameter group: short name -> Param, in the group's table order.
ParamGroup = dict[str, Param]


def zero_grads(params: Iterable[Param]) -> None:
    for p in params:
        p.zero_grad()


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Param) else x


class Tape:
    """Ordered record of applied ops; one backward pass per forward pass.

    Records are appended in execution order, which is already a topological
    order of the computation. backward() walks them in reverse, accumulating
    gradients into a table keyed on array identity and into Param.grad for
    leaves.
    """

    __slots__ = ("_records", "_spent")

    def __init__(self):
        self._records: list[tuple[np.ndarray, tuple, Callable]] = []
        self._spent = False

    def record(self, out: np.ndarray, inputs: tuple, backward: Callable) -> None:
        """Append one op: its output, its input refs, and its backward rule.

        The rule is called as backward(g, accum) where g is the gradient of
        the loss w.r.t. `out` and accum(obj, grad_array) routes per-input
        contributions.
        """
        self._records.append((out, inputs, backward))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: np.ndarray) -> None:
        if self._spent:
            raise ContractError("tape already consumed; run a new forward pass")
        if not isinstance(loss, np.ndarray) or loss.size != 1:
            raise ContractError("backward requires a scalar loss array")
        self._spent = True

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss)}

        def accum(obj, g: np.ndarray) -> None:
            # a rule may hand the same array to several inputs, so stored
            # gradients are never updated in place
            if isinstance(obj, Param):
                buf = obj.grad
                buf += g  # in place: the property has no setter
            else:
                key = id(obj)
                grads[key] = grads[key] + g if key in grads else g

        for out, _inputs, rule in reversed(self._records):
            g = grads.get(id(out))
            if g is None:
                continue
            rule(g, accum)


# ---------------------------------------------------------------------------
# ops


def matmul(a, b, tape: Tape | None = None) -> np.ndarray:
    """[..., k] @ [k x n] -> [..., n], or [..., m, k] @ [..., k, n] -> [..., m, n].

    In the first form b is shared by every row of every batch entry, so its
    gradient is summed over them; the second multiplies matrix by matrix with
    equal leading shapes.
    """
    av, bv = _val(a), _val(b)
    if bv.ndim == 2:
        ok = av.ndim >= 1 and av.shape[-1] == bv.shape[0]
    else:
        ok = (av.ndim == bv.ndim and av.shape[:-2] == bv.shape[:-2]
              and av.shape[-1] == bv.shape[-2])
    if not ok:
        raise DimensionError(f"matmul: incompatible shapes {av.shape} @ {bv.shape}")
    out = av @ bv
    if tape is not None:
        if bv.ndim == 2:
            def bwd(g, accum, av=av, bv=bv, a=a, b=b):
                k, n = bv.shape
                accum(a, (g.reshape(-1, n) @ bv.T).reshape(av.shape))
                accum(b, av.reshape(-1, k).T @ g.reshape(-1, n))
        else:
            def bwd(g, accum, av=av, bv=bv, a=a, b=b):
                accum(a, g @ np.swapaxes(bv, -1, -2))
                accum(b, np.swapaxes(av, -1, -2) @ g)
        tape.record(out, (a, b), bwd)
    return out


def transpose(x, tape: Tape | None = None) -> np.ndarray:
    """Swap the last two axes: [..., m, n] -> [..., n, m]."""
    xv = _val(x)
    if xv.ndim < 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {xv.shape}")
    out = np.ascontiguousarray(np.swapaxes(xv, -1, -2))  # BLAS may round a view differently
    if tape is not None:
        def bwd(g, accum, x=x):
            accum(x, np.ascontiguousarray(np.swapaxes(g, -1, -2)))
        tape.record(out, (x,), bwd)
    return out


def reshape(x, shape: tuple, tape: Tape | None = None) -> np.ndarray:
    """The same values, in row-major order, under a new shape."""
    xv = _val(x)
    if math.prod(shape) != xv.size:
        raise DimensionError(f"reshape: cannot view shape {xv.shape} as {tuple(shape)}")
    out = xv.reshape(shape)
    if tape is not None:
        def bwd(g, accum, x=x, shape=xv.shape):
            accum(x, g.reshape(shape))
        tape.record(out, (x,), bwd)
    return out


def add(a, b, tape: Tape | None = None) -> np.ndarray:
    """Elementwise sum of equal shapes, or [..., m, d] + [m x d] with b shared
    by the batch (its gradient is summed over the leading axes)."""
    av, bv = _val(a), _val(b)
    shared = bv.ndim == 2 and av.ndim > 2 and av.shape[-2:] == bv.shape
    if av.shape != bv.shape and not shared:
        raise DimensionError(f"add: shape mismatch {av.shape} vs {bv.shape}")
    out = np.asarray(av + bv)
    if tape is not None:
        def bwd(g, accum, a=a, b=b, shape=bv.shape):
            accum(a, g)
            accum(b, g.reshape(-1, *shape).sum(axis=0) if shared else g)
        tape.record(out, (a, b), bwd)
    return out


def sub(a, b, tape: Tape | None = None) -> np.ndarray:
    av, bv = _val(a), _val(b)
    if av.shape != bv.shape:
        raise DimensionError(f"sub: shape mismatch {av.shape} vs {bv.shape}")
    out = np.asarray(av - bv)
    if tape is not None:
        def bwd(g, accum, a=a, b=b):
            accum(a, g)
            accum(b, -g)
        tape.record(out, (a, b), bwd)
    return out


def scale(x, c: float, tape: Tape | None = None) -> np.ndarray:
    xv = _val(x)
    c = float(c)
    out = np.asarray(xv * c)
    if tape is not None:
        def bwd(g, accum, x=x, c=c):
            accum(x, g * c)
        tape.record(out, (x,), bwd)
    return out


def relu(x, tape: Tape | None = None) -> np.ndarray:
    xv = _val(x)
    out = np.asarray(np.maximum(xv, 0.0))
    if tape is not None:
        mask = xv > 0.0
        def bwd(g, accum, x=x, mask=mask):
            accum(x, g * mask)
        tape.record(out, (x,), bwd)
    return out


def softmax_rows(x, tape: Tape | None = None) -> np.ndarray:
    """Softmax over the last axis with max subtraction; rows sum to 1."""
    xv = _val(x)
    if xv.ndim < 2:
        raise DimensionError(f"softmax_rows: expected a matrix, got shape {xv.shape}")
    shifted = xv - xv.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    if tape is not None:
        def bwd(g, accum, x=x, s=out):
            dot = (g * s).sum(axis=-1, keepdims=True)
            accum(x, (g - dot) * s)
        tape.record(out, (x,), bwd)
    return out


def logsumexp_rows(x, tape: Tape | None = None) -> np.ndarray:
    """Stable log(sum(exp(row))) per row -> [m]; exact inner summation."""
    xv = _val(x)
    if xv.ndim != 2:
        raise DimensionError(f"logsumexp_rows: expected a matrix, got shape {xv.shape}")
    m = xv.max(axis=1, keepdims=True)
    e = np.exp(xv - m)
    sums = np.array([math.fsum(row) for row in e.tolist()], dtype=np.float64)
    out = m[:, 0] + np.log(sums)
    if tape is not None:
        soft = e / sums[:, None]
        def bwd(g, accum, x=x, soft=soft):
            accum(x, soft * g[:, None])
        tape.record(out, (x,), bwd)
    return out


def l2_normalize_rows(x, eps: float = 1e-12, tape: Tape | None = None) -> np.ndarray:
    """Scale each row to unit Euclidean norm; rows with norm < eps pass through."""
    xv = _val(x)
    if xv.ndim != 2:
        raise DimensionError(f"l2_normalize_rows: expected a matrix, got shape {xv.shape}")
    norms = np.sqrt((xv * xv).sum(axis=1))
    safe = norms >= eps
    div = np.where(safe, norms, 1.0)
    out = xv / div[:, None]
    if tape is not None:
        def bwd(g, accum, x=x, y=out, div=div, safe=safe):
            dot = (g * y).sum(axis=1, keepdims=True)
            gx = (g - dot * y) / div[:, None]
            gx = np.where(safe[:, None], gx, g)
            accum(x, gx)
        tape.record(out, (x,), bwd)
    return out


# Compare-exchange pairs (i, j) that leave rows 0..m-1 in ascending order.
_SORT_NETWORKS = {1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1)),
                  4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def mean_rows(x, tape: Tape | None = None) -> np.ndarray:
    """Mean over the row axis, [..., m, d] -> [..., d].

    Each column is summed in ascending order (sorted summation), so the
    result is bitwise invariant to the order of the rows. For m <= 4 a
    compare-exchange network sorts whole [..., d] planes, added left to right
    from +0.0 as numpy's sum adds np.sort's rows. The bits match: apart from
    NaN only -0.0 and +0.0 tie with different bits, and a sum from +0.0
    comes out the same whichever of them it adds.
    """
    xv = _val(x)
    if xv.ndim < 2 or xv.shape[-2] < 1:
        raise DimensionError(f"mean_rows: expected a non-empty matrix, got shape {xv.shape}")
    m = xv.shape[-2]
    if m in _SORT_NETWORKS:
        rows = list(np.moveaxis(xv, -2, 0).copy())
        for i, j in _SORT_NETWORKS[m]:
            rows[i], rows[j] = np.minimum(rows[i], rows[j]), np.maximum(rows[i], rows[j])
        total = sum(rows, 0.0)
    else:
        total = np.sort(xv, axis=-2).sum(axis=-2)
    out = total / m
    if tape is not None:
        def bwd(g, accum, x=x, m=m):
            accum(x, np.repeat(np.expand_dims(g / m, -2), m, axis=-2))
        tape.record(out, (x,), bwd)
    return out


def mean_all(x, tape: Tape | None = None) -> np.ndarray:
    """Mean of every element -> scalar, exactly rounded."""
    xv = _val(x)
    n = xv.size
    if n == 0:
        raise DimensionError("mean_all: empty array")
    out = np.asarray(math.fsum(xv.ravel().tolist()) / n)
    if tape is not None:
        def bwd(g, accum, x=x, n=n, shape=xv.shape):
            accum(x, np.full(shape, g.item() / n))
        tape.record(out, (x,), bwd)
    return out


def take_rows(x, n: int, tape: Tape | None = None) -> np.ndarray:
    """First n rows of a matrix."""
    xv = _val(x)
    if xv.ndim != 2:
        raise DimensionError(f"take_rows: expected a matrix, got shape {xv.shape}")
    if not 1 <= n <= xv.shape[0]:
        raise InputError(f"take_rows: n={n} outside [1, {xv.shape[0]}]")
    out = xv[:n].copy()
    if tape is not None:
        def bwd(g, accum, x=x, n=n, shape=xv.shape):
            full = np.zeros(shape)
            full[:n] = g
            accum(x, full)
        tape.record(out, (x,), bwd)
    return out


def take_diag(x, tape: Tape | None = None) -> np.ndarray:
    """Diagonal of a square matrix -> [n]."""
    xv = _val(x)
    if xv.ndim != 2 or xv.shape[0] != xv.shape[1]:
        raise DimensionError(f"take_diag: expected a square matrix, got shape {xv.shape}")
    out = np.diagonal(xv).copy()
    if tape is not None:
        def bwd(g, accum, x=x, n=xv.shape[0]):
            full = np.zeros((n, n))
            np.fill_diagonal(full, g)
            accum(x, full)
        tape.record(out, (x,), bwd)
    return out


def concat_rows(parts: Sequence, tape: Tape | None = None) -> np.ndarray:
    """Concatenate matrices of equal width along rows."""
    vals = [_val(p) for p in parts]
    if not vals:
        raise InputError("concat_rows: no inputs")
    for v in vals:
        if v.ndim != 2 or v.shape[1] != vals[0].shape[1]:
            raise DimensionError(f"concat_rows: widths do not line up: "
                                 f"{[v.shape for v in vals]}")
    out = np.concatenate(vals)
    if tape is not None:
        bounds = np.cumsum([v.shape[0] for v in vals])[:-1]
        def bwd(g, accum, parts=tuple(parts), bounds=bounds):
            for p, piece in zip(parts, np.split(g, bounds)):
                accum(p, piece)
        tape.record(out, tuple(parts), bwd)
    return out


def dropout(x, rate: float, train_mode: bool, rng: np.random.Generator | None = None,
            tape: Tape | None = None) -> np.ndarray:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Identity in eval mode and at rate 0; the mask comes from the supplied
    generator so training stays reproducible.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    if not train_mode or rate == 0.0:
        return _val(x)
    if rng is None:
        raise ConfigurationError("dropout in train mode requires a random generator")
    xv = _val(x)
    keep = rng.random(xv.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    out = np.asarray(xv * keep * factor)
    if tape is not None:
        def bwd(g, accum, x=x, keep=keep, factor=factor):
            accum(x, g * keep * factor)
        tape.record(out, (x,), bwd)
    return out


# ---------------------------------------------------------------------------
# gradient oracle


class GradCheckReport:
    """Per-parameter max relative error of analytic vs central-difference gradients."""

    def __init__(self, per_param: list[tuple[str, float]], tol: float):
        self.per_param = per_param
        self.tol = tol

    @property
    def max_rel_err(self) -> float:
        return max((e for _, e in self.per_param), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def __repr__(self) -> str:
        lines = [f"grad_check tol={self.tol:g} max={self.max_rel_err:.3e} "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for name, err in self.per_param:
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


def grad_check(f: Callable[[Tape | None], np.ndarray], params: Sequence[Param],
               h: float = 1e-5, tol: float = 1e-6) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    `f(tape)` must rebuild the forward pass from the current parameter values
    and be deterministic (fix any dropout seed inside). Relative error per
    entry is |a - n| / max(1, |a|, |n|); the check passes when the maximum
    over all entries of all params is <= tol.
    """
    zero_grads(params)
    tape = Tape()
    loss = f(tape)
    tape.backward(loss)
    analytic = [p.grad.copy() for p in params]

    per_param: list[tuple[str, float]] = []
    for i, (p, a) in enumerate(zip(params, analytic)):
        flat = p.value.reshape(-1)
        aflat = a.reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = f(None).item()
            flat[j] = orig - h
            fm = f(None).item()
            flat[j] = orig
            num = (fp - fm) / (2.0 * h)
            err = abs(aflat[j] - num) / max(1.0, abs(aflat[j]), abs(num))
            if err > worst:
                worst = err
        per_param.append((p.name or f"param{i}", worst))

    zero_grads(params)
    return GradCheckReport(per_param, tol)
