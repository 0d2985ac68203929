"""Temperature-scaled cosine similarity logits and the InfoNCE objective.

Both embedding matrices are L2-normalized inside similarity_matrix, so its
[N x N] logits array holds cosine similarities divided by the temperature;
matching pairs sit on the diagonal. info_nce takes that array. The loss is
batch-mean cross-entropy toward the diagonal, averaged over both directions
when symmetric. The temperature tau and the symmetric flag are plain values;
TrainConfig holds and validates them for training.
"""

from __future__ import annotations

import numpy as np

from . import diffmath as dm
from .diffmath import Tape
from .errors import BatchError, DimensionError, InputError


def similarity_matrix(img, txt, tau: float, tape: Tape | None = None) -> np.ndarray:
    """Cosine similarities of all image/text pairs, scaled by 1/tau: the
    [N x N] logits, entry ij = cos(img_i, txt_j) / tau."""
    iv, tv = dm._val(img), dm._val(txt)
    if iv.ndim != 2 or tv.ndim != 2 or iv.shape[1] != tv.shape[1]:
        raise DimensionError(
            f"similarity_matrix: embedding shapes disagree: {iv.shape} vs {tv.shape}")
    if iv.shape[0] != tv.shape[0]:
        raise DimensionError(
            f"similarity_matrix: batch sizes differ: {iv.shape[0]} vs {tv.shape[0]}")
    if iv.shape[0] < 2:
        raise BatchError("similarity_matrix: need N >= 2 pairs for in-batch negatives")
    img_n = dm.l2_normalize_rows(img, tape=tape)
    txt_n = dm.l2_normalize_rows(txt, tape=tape)
    return dm.scale(dm.matmul(img_n, dm.transpose(txt_n, tape), tape), 1.0 / tau, tape)


def _direction_loss(logits, tape: Tape | None) -> np.ndarray:
    # mean over rows of (logsumexp(row) - diagonal entry)
    lse = dm.logsumexp_rows(logits, tape)
    diag = dm.take_diag(logits, tape)
    return dm.mean_all(dm.sub(lse, diag, tape), tape)


def info_nce(logits: np.ndarray, symmetric: bool = True, tape: Tape | None = None) -> np.ndarray:
    """Cross-entropy toward the diagonal of the [N x N] logits; image->text
    plus (optionally) text->image."""
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
        raise InputError(f"info_nce: logits must be square, got shape {logits.shape}")
    i2t = _direction_loss(logits, tape)
    if not symmetric:
        return i2t
    t2i = _direction_loss(dm.transpose(logits, tape), tape)
    return dm.scale(dm.add(i2t, t2i, tape), 0.5, tape)


def batch_loss(img, txt, tau: float, symmetric: bool, tape: Tape | None = None) -> np.ndarray:
    """similarity_matrix followed by info_nce; the training-step composite."""
    return info_nce(similarity_matrix(img, txt, tau, tape), symmetric, tape)
