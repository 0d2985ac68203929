"""Downstream evaluation: frozen-feature extraction, linear probing with
stratified cross-validation, cross-modal top-1 matching, and the
four-configuration ablation runner.

Extraction streams its volumes from file to slice embeddings
(encoders.encode_samples, which holds one preprocessing batch at a time and
may split its samples with a forked child), then pools them in batches of
many volumes (encoders.slice_batches); every row keeps the bits it gets
alone. Stage 2 freezes the image group, so the ablation runner's two
stage-2 trainings and four rows share one encoders.FrozenEncodings memo
under the initial and the stage-1 encoder: each 3D sample is loaded once
and encoded once per distinct encoder.

The probe recipe is fixed (full-batch gradient descent, 500 iterations, step
0.1, no regularization) so reports are reproducible; F1 is macro-averaged.
The k folds' probes train as stacks, one stack per training-set size (one
stack when every class size is a multiple of k), and each fold's weights are
bit for bit those it would get trained alone.

The ablation extracts its four tables in order, then probes them on two
cores: one forked child probes rows 1-2 while this process probes rows 3-4
(_probe_tables, through encoders._in_two), and matching follows. With one
usable CPU, or without os.fork, everything runs in this process alone.
README "Ablation" says why threads were not used and what the fork costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import datapipe as dp
from . import diffmath as dm
from . import encoders as enc
from . import slice_pool as sp
from . import trainer as tr
from .config import TrainConfig
from .diffmath import ParamGroup, make_rng
from .errors import (AmbiguityError, DependencyError, EvaluationError, InputError, LoadError,
                     StratificationError)

PROBE_ITERATIONS = 500
PROBE_STEP = 0.1


@dataclass
class EmbeddingRow:
    id: str
    label: int
    vec: np.ndarray


@dataclass
class EmbeddingTable:
    rows: list[EmbeddingRow]

    def __post_init__(self):
        ids = [r.id for r in self.rows]
        if len(set(ids)) != len(ids):
            raise InputError("embedding table ids must be unique")
        dims = {r.vec.shape for r in self.rows}
        if len(dims) > 1:
            raise InputError(f"embedding table has mixed dimensionalities: {dims}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return self.rows[0].vec.shape[0] if self.rows else 0

    def matrix(self) -> np.ndarray:
        return np.stack([r.vec for r in self.rows])

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.rows], dtype=int)


def extract_embeddings(ckpt: tr.Checkpoint, entries, data_root, pool_mode: str,
                       encodings: enc.FrozenEncodings | None = None) -> EmbeddingTable:
    """One embedding per manifest entry, in manifest order, eval mode throughout.

    Slices are encoded by enc.encode_samples, through `encodings` when given
    (a memo shared across calls), and pooled one slice_batches batch per
    pool call; each row has the bits of encode_image2d and its pool function
    on its volume alone.
    """
    if pool_mode not in sp.POOL_MODES:
        raise InputError(f"pool mode must be one of {sp.POOL_MODES}, got {pool_mode!r}")
    root = Path(data_root)
    cfg = ckpt.config
    mats = (encodings or enc.FrozenEncodings([ckpt.image], cfg.image_size, cfg.s_max)).get(
        [dp._sample_path(root, e.path) for e in entries], ckpt.image, cfg.image_size)
    vecs = [None] * len(mats)
    for batch in enc.slice_batches([m.shape[0] for m in mats], cfg.s_max):
        stack = np.stack([mats[i] for i in batch])
        pooled = (sp.gap_pool(stack) if pool_mode == "gap"
                  else sp.attention_pool(stack, ckpt.adapter, cfg.heads))
        for i, vec in zip(batch, pooled):
            vecs[i] = vec
    return EmbeddingTable([EmbeddingRow(id=e.id, label=e.label, vec=v)
                           for e, v in zip(entries, vecs)])


def export_embeddings_csv(table: EmbeddingTable, path) -> None:
    bad = [r.id for r in table.rows if any(c in r.id for c in ",\r\n")]
    if bad:
        raise InputError(f"embedding ids cannot hold ',' or a line break: {bad[:3]!r}")
    d = table.dim
    header = "id,label," + ",".join(f"e{i}" for i in range(d))
    lines = [header]
    for r in table.rows:
        lines.append(f"{r.id},{r.label}," + ",".join(repr(float(v)) for v in r.vec))
    dp._write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def read_embeddings_csv(path) -> EmbeddingTable:
    try:
        lines = Path(path).read_text().strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read embeddings {path}: {exc}") from exc
    if not lines or not lines[0].startswith("id,label,"):
        raise LoadError(f"{path}: missing embedding CSV header")
    dim = lines[0].count(",") - 1  # the header's value columns
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        try:
            vec = np.array([float(x) for x in parts[2:]])
            if len(vec) != dim or not np.isfinite(vec).all():
                raise ValueError(f"the header needs {dim} finite values")
            rows.append(EmbeddingRow(id=parts[0], label=int(parts[1]), vec=vec))
        except ValueError as exc:
            raise LoadError(f"{path}: line {lineno}: malformed embedding row: {exc}") from exc
    return EmbeddingTable(rows)


# ---------------------------------------------------------------------------
# linear probing


@dataclass
class ProbeReport:
    fold_accuracy: list[float]
    fold_macro_f1: list[float]

    @property
    def accuracy_mean(self) -> float:
        return float(np.mean(self.fold_accuracy))

    @property
    def accuracy_std(self) -> float:
        return float(np.std(self.fold_accuracy))

    @property
    def f1_mean(self) -> float:
        return float(np.mean(self.fold_macro_f1))

    @property
    def f1_std(self) -> float:
        return float(np.std(self.fold_macro_f1))

    def to_csv(self) -> str:
        lines = ["fold,accuracy,macro_f1"]
        for i, (a, f) in enumerate(zip(self.fold_accuracy, self.fold_macro_f1)):
            lines.append(f"{i},{a!r},{f!r}")
        lines.append(f"mean,{self.accuracy_mean!r},{self.f1_mean!r}")
        lines.append(f"std,{self.accuracy_std!r},{self.f1_std!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"{'fold':>6} {'accuracy':>10} {'macro-F1':>10}"]
        for i, (a, f) in enumerate(zip(self.fold_accuracy, self.fold_macro_f1)):
            lines.append(f"{i:>6} {a:>10.4f} {f:>10.4f}")
        lines.append(f"{'mean':>6} {self.accuracy_mean:>10.4f} {self.f1_mean:>10.4f}")
        lines.append(f"{'std':>6} {self.accuracy_std:>10.4f} {self.f1_std:>10.4f}")
        return "\n".join(lines) + "\n"


def _train_logistic(xa: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Multinomial logistic regression, full-batch GD with the fixed recipe,
    on a stack of problems of one training size: xa [g, n, d+1] (features
    with a ones column), onehot [g, n, c] -> weights [g, d+1, c].

    numpy multiplies a stack one matrix at a time, and xat stays a view of
    xa, so each problem gets the bits it would get alone. The row max is a
    running maximum over the c columns: exact, and faster than a reduction
    over a short trailing axis. For c < 8 the row sum adds the columns left
    to right, as numpy's pairwise sum does below 8 elements; from 8 on that
    sum splits into 8 accumulators, so numpy's reduction is kept.
    """
    n = xa.shape[1]
    c = onehot.shape[2]
    xat = xa.swapaxes(-1, -2)
    w = np.zeros((xa.shape[0], xa.shape[2], c))
    for _ in range(PROBE_ITERATIONS):
        z = xa @ w
        zmax = np.maximum(z[..., 0], z[..., 1])
        for j in range(2, c):
            np.maximum(zmax, z[..., j], out=zmax)
        z -= zmax[..., None]
        p = np.exp(z, out=z)
        if c < 8:
            total = p[..., 0] + p[..., 1]
            for j in range(2, c):
                total += p[..., j]
        else:
            total = p.sum(axis=-1)
        p /= total[..., None]
        p -= onehot
        g = xat @ p
        g *= PROBE_STEP
        g /= n
        w -= g
    return w


def _macro_f1(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> float:
    scores = []
    for c in range(n_classes):
        tp = int(((y_pred == c) & (y_true == c)).sum())
        fp = int(((y_pred == c) & (y_true != c)).sum())
        fn = int(((y_pred != c) & (y_true == c)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def linear_probe_cv(table: EmbeddingTable, k: int = 5, seed: int = 0) -> ProbeReport:
    """Stratified seeded k-fold; a fresh probe per fold, scored on the held-out fold."""
    if k < 2:
        raise EvaluationError(f"linear probe needs k >= 2 folds, got k={k}")
    labels = table.labels()
    classes = np.unique(labels)
    if len(classes) < 2:
        raise EvaluationError("linear probe needs at least 2 classes")
    class_to_idx = {c: i for i, c in enumerate(classes)}
    y = np.array([class_to_idx[v] for v in labels])
    x = table.matrix()

    rng = make_rng(seed, "probe:folds")
    fold_of = np.empty(len(table), dtype=int)
    for c in range(len(classes)):
        members = np.flatnonzero(y == c)
        if len(members) < k:
            raise StratificationError(
                f"class {classes[c]} has {len(members)} members, fewer than {k} folds")
        members = members[rng.permutation(len(members))]
        for pos, idx in enumerate(members):
            fold_of[idx] = pos % k

    # Folds of one training size train as one stack: one stack when every
    # class size is a multiple of k, a few otherwise.
    xa = np.hstack([x, np.ones((len(x), 1))])
    onehot = np.eye(len(classes))[y]
    train = [fold_of != f for f in range(k)]
    by_size: dict[int, list[int]] = {}
    for f in range(k):
        by_size.setdefault(int(train[f].sum()), []).append(f)
    weights = {}
    for folds in by_size.values():
        w = _train_logistic(np.stack([xa[train[f]] for f in folds]),
                            np.stack([onehot[train[f]] for f in folds]))
        weights.update(zip(folds, w))

    accs, f1s = [], []
    for f in range(k):
        test = ~train[f]
        pred = (xa[test] @ weights[f]).argmax(axis=1)
        accs.append(float((pred == y[test]).mean()))
        f1s.append(_macro_f1(y[test], pred, len(classes)))
    return ProbeReport(fold_accuracy=accs, fold_macro_f1=f1s)


# ---------------------------------------------------------------------------
# cross-modal matching


@dataclass
class MatchReport:
    precision: float
    confusion: np.ndarray  # [true x predicted]

    def to_csv(self) -> str:
        c = self.confusion.shape[0]
        lines = [f"top1_precision,{self.precision!r}"]
        lines.append("true\\pred," + ",".join(str(j) for j in range(c)))
        for i in range(c):
            lines.append(f"{i}," + ",".join(str(int(v)) for v in self.confusion[i]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        c = self.confusion.shape[0]
        lines = [f"top-1 precision: {self.precision:.4f}", ""]
        lines.append("confusion (rows = true class, cols = predicted):")
        head = "     " + "".join(f"{j:>7}" for j in range(c))
        lines.append(head)
        for i in range(c):
            lines.append(f"{i:>5}" + "".join(f"{int(v):>7}" for v in self.confusion[i]))
        return "\n".join(lines) + "\n"


def top1_match(images: EmbeddingTable, class_captions: list[str],
               text_params: ParamGroup) -> MatchReport:
    """Assign each image to the nearest class caption by cosine; ties break
    to the lowest class id. Captions are tokenized mod the text table's row
    count, as encoders.encode_text does; one bag of tokens twice is ambiguous."""
    if not class_captions:
        raise InputError("top1_match: no candidate captions")
    seen: dict[tuple, int] = {}
    for c, text in enumerate(class_captions):
        key = tuple(sorted(dp.tokenize(text, len(text_params["embed_table"].value))))
        if key in seen:
            raise AmbiguityError(
                f"captions for classes {seen[key]} and {c} are identical after tokenization")
        seen[key] = c

    if not len(images):
        raise EvaluationError("top1_match: empty embedding table")
    n_classes = len(class_captions)
    labels = images.labels()
    if labels.min() < 0 or labels.max() >= n_classes:
        raise InputError(f"image labels must lie in [0, {n_classes}), got "
                         f"[{labels.min()}, {labels.max()}]")

    cap_mat = np.stack([enc.encode_text(text, text_params) for text in class_captions])
    scores = dm.l2_normalize_rows(images.matrix()) @ dm.l2_normalize_rows(cap_mat).T
    pred = scores.argmax(axis=1)  # argmax returns the first (lowest) index on ties

    confusion = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(labels, pred):
        confusion[t, p] += 1
    precision = float((pred == labels).mean())
    return MatchReport(precision=precision, confusion=confusion)


# ---------------------------------------------------------------------------
# ablation runner


ABLATION_CONFIGS = (
    "vanilla encoder + gap",
    "vanilla encoder + trained adapter",
    "fine-tuned encoder + gap",
    "fine-tuned encoder + trained adapter",
)


@dataclass
class AblationRow:
    config: str
    probe_accuracy: float
    probe_macro_f1: float
    match_precision: float


@dataclass
class AblationReport:
    rows: list[AblationRow]

    def __post_init__(self):
        if [r.config for r in self.rows] != list(ABLATION_CONFIGS):
            raise InputError("ablation report must contain exactly the four standard rows")

    def to_csv(self) -> str:
        lines = ["config,probe_accuracy,probe_macro_f1,match_precision"]
        for r in self.rows:
            lines.append(f"{r.config},{r.probe_accuracy!r},{r.probe_macro_f1!r},"
                         f"{r.match_precision!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        w = max(len(r.config) for r in self.rows)
        lines = [f"{'configuration':<{w}} {'probe-acc':>10} {'macro-F1':>10} {'match-P@1':>10}"]
        for r in self.rows:
            lines.append(f"{r.config:<{w}} {r.probe_accuracy:>10.4f} "
                         f"{r.probe_macro_f1:>10.4f} {r.match_precision:>10.4f}")
        return "\n".join(lines) + "\n"


@dataclass
class AblationData:
    """Corpora for the ablation: a 2D corpus to fine-tune the encoder and a 3D
    corpus to train the adapter and evaluate all four configurations."""

    root2d: Path | None
    entries2d: list[dp.ManifestEntry] | None
    root3d: Path
    entries3d: list[dp.ManifestEntry]
    captions3d: list[str]


def _splits(entries):
    return ([e for e in entries if e.split == "train"],
            [e for e in entries if e.split == "val"],
            [e for e in entries if e.split == "test"])


def _cached_stage2(cfg, data, base_ckpt, workdir: Path, name, encodings):
    """The adapter trained on base_ckpt's encoder: the cached file in workdir
    when its image group equals base_ckpt's, else a fresh one."""
    path = workdir / name
    if path.is_file():
        ckpt = tr.load_checkpoint(path)
        ckpt.config.check_geometry(cfg)
        if enc.same_group(ckpt.image, base_ckpt.image):
            return ckpt
    train3d, val3d, _ = _splits(data.entries3d)
    ckpt = tr.train_stage2(cfg, train3d, val3d, data.root3d, base_ckpt,
                           out_dir=workdir / name.removesuffix(".ckpt"), encodings=encodings)
    tr.save_checkpoint(ckpt, path)
    return ckpt


def run_ablation(data: AblationData, cfg: TrainConfig, workdir,
                 stage1_ckpt: tr.Checkpoint | None = None) -> AblationReport:
    """Evaluate the four encoder/pooling configurations on the 3D test split.

    Trains whatever is missing: the stage-1 encoder (unless supplied or cached
    in workdir) and one adapter per encoder variant, each cached in workdir
    with its per-epoch files. Configuration "vanilla encoder + gap" involves
    no training at all. The adapter trainings and the rows share one memo of
    slice embeddings under the two encoders.
    """
    workdir = Path(workdir)
    dp._make_dirs(workdir)

    init_ckpt = tr.make_initial_checkpoint(cfg)

    if stage1_ckpt is None and (workdir / "stage1.ckpt").is_file():
        stage1_ckpt = tr.load_checkpoint(workdir / "stage1.ckpt")
    if stage1_ckpt is None:
        if data.entries2d is None or data.root2d is None:
            raise DependencyError(
                "no stage-1 checkpoint and no 2D corpus to train one; "
                "run the 2D training step first or provide its checkpoint")
        train2d, val2d, _ = _splits(data.entries2d)
        stage1_ckpt = tr.train_stage1(cfg, train2d, val2d, data.root2d,
                                      out_dir=workdir / "stage1")
        tr.save_checkpoint(stage1_ckpt, workdir / "stage1.ckpt")
    else:
        stage1_ckpt.config.check_geometry(cfg)

    # stage 2 freezes the image group: every encoding below is under one of two
    encodings = enc.FrozenEncodings([init_ckpt.image, stage1_ckpt.image], cfg.image_size,
                                    cfg.s_max)
    adapter_vanilla = _cached_stage2(cfg, data, init_ckpt, workdir, "stage2_vanilla.ckpt",
                                     encodings)
    adapter_tuned = _cached_stage2(cfg, data, stage1_ckpt, workdir, "stage2_finetuned.ckpt",
                                   encodings)

    _, _, test3d = _splits(data.entries3d)
    if not test3d:
        raise EvaluationError("ablation needs a non-empty 3D test split")

    setups = [
        (ABLATION_CONFIGS[0], init_ckpt, "gap"),
        (ABLATION_CONFIGS[1], adapter_vanilla, "attention"),
        (ABLATION_CONFIGS[2], stage1_ckpt, "gap"),
        (ABLATION_CONFIGS[3], adapter_tuned, "attention"),
    ]
    tables = [extract_embeddings(ckpt, test3d, data.root3d, mode, encodings=encodings)
              for _, ckpt, mode in setups]
    probes = _probe_tables(tables, cfg.seed)
    rows = []
    for (name, ckpt, _), table, probe in zip(setups, tables, probes):
        match = top1_match(table, data.captions3d, ckpt.text)
        rows.append(AblationRow(config=name, probe_accuracy=probe.accuracy_mean,
                                probe_macro_f1=probe.f1_mean,
                                match_precision=match.precision))
    return AblationReport(rows=rows)


def _probe_tables(tables: list[EmbeddingTable], seed: int) -> list[ProbeReport]:
    """linear_probe_cv(table, k=5, seed=seed) of each table, raising the first
    table's typed error as a loop over them would. With two usable CPUs, one
    forked child probes the first half of the tables (encoders._in_two)."""
    parts = enc._in_two(lambda part: [linear_probe_cv(t, k=5, seed=seed) for t in part],
                        tables, "probe", EvaluationError)
    return [report for part in parts for report in part]
