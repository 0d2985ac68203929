"""Two-stage contrastive training and checkpointing.

Stage 1 fine-tunes the 2D image encoder against the frozen text encoder on
2D samples; stage 2 freezes both encoders and trains only the slice-pooling
adapter on volumes (TRAINS). Both stages share one engine, which reads the
stage and config from its checkpoint: seeded shuffling, Adam with decoupled
weight decay, cosine-annealed learning rate, per-epoch checkpoints, and
early stopping on validation loss. Runs are bitwise reproducible for a fixed
config and seed. A run is its output directory: a resume continues it exactly
from its newest epoch checkpoint, and a fresh run first deletes those files.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import struct
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import contrastive as ct
from . import datapipe as dp
from . import diffmath as dm
from . import encoders as enc
from . import slice_pool as sp
from .config import TrainConfig
from .diffmath import Param, ParamGroup, Tape
from .errors import (CheckpointError, CompatibilityError, ConfigurationError,
                     DependencyError, InputError, NonFiniteError)

CHECKPOINT_VERSION = 4
_MAGIC = b"RCKP"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

INIT_STD = 0.02


def cosine_lr(t: int, cfg: TrainConfig) -> float:
    """Cosine annealing from lr0 (t = 0) down to lr_min (t = epochs).

    The endpoints are returned exactly rather than through the cosine
    expression, so cosine_lr(0) == lr0 bit for bit.
    """
    if t < 0 or (cfg.epochs > 0 and t > cfg.epochs):
        raise InputError(f"epoch index {t} outside [0, {cfg.epochs}]")
    if t == 0 or cfg.epochs == 0:
        return cfg.lr0
    if t == cfg.epochs:
        return cfg.lr_min
    return cfg.lr_min + 0.5 * (cfg.lr0 - cfg.lr_min) * (1.0 + math.cos(math.pi * t / cfg.epochs))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    step: int
    moments: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (m, v)

    def copy(self) -> "OptimizerState":
        return OptimizerState(self.step, {k: (m.copy(), v.copy())
                                          for k, (m, v) in self.moments.items()})


class Adam:
    """Adam with decoupled weight decay over its params, updating a given state in place."""

    def __init__(self, params: list[Param], weight_decay: float = 0.0,
                 state: OptimizerState | None = None):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigurationError("optimizer params must have unique names")
        self.weight_decay = weight_decay
        if state is None:
            self.step_count = 0
            self.moments = {p.name: (np.zeros_like(p.value), np.zeros_like(p.value))
                            for p in self.params}
        else:
            self.step_count, self.moments = state.step, state.moments
            for p in self.params:
                if p.name not in self.moments:
                    raise CheckpointError(f"optimizer state missing moments for {p.name}")

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for p in self.params:
            g = p.grad
            m, v = self.moments[p.name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.value
            p.value -= lr * update


# ---------------------------------------------------------------------------
# checkpoints


# The parameter registry: group -> (its shape table, its init draw, or None
# for one draw per table in table order). This order, then each table's
# order, is the order of the param: sections in a checkpoint file.
GROUPS = {"text": (enc.text_shapes, None),
          "image": (enc.image_shapes, None),
          "adapter": (sp.adapter_shapes, sp.draw_adapter)}
# The one group each stage trains; every other group is frozen in that stage.
TRAINS = {1: "image", 2: "adapter"}


def init_group(cfg: TrainConfig, group: str, seed: int) -> ParamGroup:
    """Draw every tensor of one group from N(0, INIT_STD^2)."""
    shapes, draw_group = GROUPS[group]
    draw = partial(dm.make_rng(seed, f"init:{group}").normal, 0.0, INIT_STD)
    values = (draw_group(cfg, draw) if draw_group
              else {name: draw(shape) for name, shape in shapes(cfg).items()})
    return {name: Param(value, name=f"{group}.{name}")
            for name, value in values.items()}


@dataclass
class Checkpoint:
    """Everything needed to evaluate or to resume training: all parameter
    groups, optimizer moments and the per-epoch history, from which the
    progress counters follow."""

    stage: int
    config: TrainConfig
    text: ParamGroup
    image: ParamGroup
    adapter: ParamGroup
    optimizer: OptimizerState | None = None
    history: list[dict] = field(default_factory=list)  # one record per completed epoch

    @property
    def epoch(self) -> int:
        """Completed epochs."""
        return len(self.history)

    @property
    def best_epoch(self) -> int | None:
        """The first epoch with the lowest validation loss (min keeps the
        first of equal values), or None before any epoch."""
        if not self.history:
            return None
        return min(range(len(self.history)), key=lambda e: self.history[e]["val_loss"])

    @property
    def best_val_loss(self) -> float | None:
        best = self.best_epoch
        return None if best is None else self.history[best]["val_loss"]

    def groups(self) -> dict[str, ParamGroup]:
        return {g: getattr(self, g) for g in GROUPS}

    def model_params(self) -> list[Param]:
        return [p for group in self.groups().values() for p in group.values()]


def make_initial_checkpoint(cfg: TrainConfig) -> Checkpoint:
    """A fresh, untrained stage-1 checkpoint determined entirely by cfg.seed."""
    return Checkpoint(stage=1, config=cfg,
                      **{g: init_group(cfg, g, cfg.seed) for g in GROUPS})


def _copy_param(p: Param, trained: bool) -> Param:
    """A trained value is copied; a frozen one is shared and marked
    read-only on both sides. No gradient is copied."""
    if trained:
        return Param(p.value.copy(), name=p.name)
    p.value.flags.writeable = False
    return Param(p.value, name=p.name)


def snapshot_checkpoint(ckpt: Checkpoint) -> Checkpoint:
    """A copy that later training steps cannot mutate: the values of the
    group that ckpt.stage trains and the optimizer moments are copied, the
    other groups shared read-only."""
    groups = {g: {k: _copy_param(p, g == TRAINS[ckpt.stage]) for k, p in group.items()}
              for g, group in ckpt.groups().items()}
    return replace(ckpt, **groups,
                   optimizer=ckpt.optimizer.copy() if ckpt.optimizer else None,
                   history=[dict(h) for h in ckpt.history])


def _tensor_parts(a: np.ndarray) -> list:
    """A tensor section's payload: its shape header, then its values as
    little-endian float64 bytes, which view `a` when it is C-contiguous
    float64 already."""
    a = np.asarray(a, dtype="<f8", order="C")  # not ascontiguousarray, which makes 0-d 1-d
    return [struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape), a.reshape(-1).view(np.uint8)]


def _unpack_tensor(blob, span: slice) -> np.ndarray:
    """The tensor in blob[span], copied once out of blob."""
    start, stop = span.start, span.stop
    if stop - start < 4:
        raise CheckpointError("tensor section truncated")
    (ndim,) = struct.unpack_from("<I", blob, start)
    ofs = start + 4 + 4 * ndim
    if ofs > stop:
        raise CheckpointError("tensor section truncated")
    shape = struct.unpack_from(f"<{ndim}I", blob, start + 4)
    count = math.prod(shape)
    if stop != ofs + 8 * count:
        raise CheckpointError("tensor payload length mismatch")
    # no name holds the view, so no exception's frame keeps the map exported
    return np.frombuffer(blob, "<f8", count, ofs).astype(np.float64).reshape(shape)


def _sections(ckpt: Checkpoint):
    """(name, payload parts) of each checkpoint section, in file order."""
    meta = {
        "stage": ckpt.stage,
        "config": ckpt.config.to_dict(),
        "history": ckpt.history,
        "optimizer_step": ckpt.optimizer.step if ckpt.optimizer else None,
    }
    yield "meta", [json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")]
    for p in ckpt.model_params():
        yield f"param:{p.name}", _tensor_parts(p.value)
    if ckpt.optimizer is not None:
        for name in sorted(ckpt.optimizer.moments):
            m, v = ckpt.optimizer.moments[name]
            yield f"adam.m:{name}", _tensor_parts(m)
            yield f"adam.v:{name}", _tensor_parts(v)


def _file_chunks(ckpt: Checkpoint):
    yield _MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
    for name, parts in _sections(ckpt):
        nb = name.encode("utf-8")
        yield struct.pack("<I", len(nb)) + nb + struct.pack("<Q", sum(map(len, parts)))
        yield from parts


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ckpt section by section; tensors go to the file without a copy."""
    dp._write_atomic(path, _file_chunks(ckpt))


def _read_sections(blob, path) -> dict[str, slice]:
    """The byte span of each section's payload in blob, by section name."""
    if blob[:4] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unknown checkpoint version {version}")
    sections: dict[str, slice] = {}
    ofs = 8
    while ofs < len(blob):
        if ofs + 4 > len(blob):
            raise CheckpointError(f"{path}: truncated section header")
        (nlen,) = struct.unpack_from("<I", blob, ofs)
        ofs += 4
        if ofs + nlen + 8 > len(blob):
            raise CheckpointError(f"{path}: truncated section name or length")
        try:
            name = blob[ofs:ofs + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: section name is not UTF-8: {exc}") from exc
        ofs += nlen
        (plen,) = struct.unpack_from("<Q", blob, ofs)
        ofs += 8
        if ofs + plen > len(blob):
            raise CheckpointError(f"{path}: truncated payload for section {name!r}")
        if name in sections:
            raise CheckpointError(f"{path}: duplicate section {name!r}")
        sections[name] = slice(ofs, ofs + plen)
        ofs += plen
    return sections


def _count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_HISTORY_KEYS = ("epoch", "lr", "train_loss", "val_loss")  # of a history record; loss.csv columns


def _history(v) -> bool:
    """Records numbered by epoch 0, 1, ..., n - 1, which makes n the epoch count."""
    return isinstance(v, list) and all(
        isinstance(h, dict) and _count(h.get("epoch")) and h["epoch"] == e
        and all(_number(h.get(k)) for k in _HISTORY_KEYS) for e, h in enumerate(v))


# what each meta field beside config accepts
_META_FIELDS = {
    "stage": ("1 or 2", lambda v: _count(v) and v in (1, 2)),
    "history": ("a list of objects numbered by epoch 0, 1, ... with numbers at "
                + ", ".join(_HISTORY_KEYS), _history),
    "optimizer_step": ("an integer >= 0 or null", lambda v: v is None or _count(v)),
}


def _read_meta(payload: bytes | None, path) -> dict:
    if payload is None:
        raise CheckpointError(f"{path}: missing meta section")
    try:
        meta = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt meta section: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"{path}: meta section must be an object with a config object")
    missing = [k for k in _META_FIELDS if k not in meta]
    if missing:
        raise CheckpointError(f"{path}: meta section lacks {missing}")
    extra = sorted(meta.keys() - {"config", *_META_FIELDS})
    if extra:
        raise CheckpointError(f"{path}: meta section has unexpected keys {extra}")
    for key, (what, accepts) in _META_FIELDS.items():
        if not accepts(meta[key]):
            raise CheckpointError(f"{path}: meta {key} must be {what}, got {meta[key]!r:.80}")
    return meta


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, refusing any section the registry does not expect
    for the file's own config and stage and any tensor of the wrong shape or
    with a non-finite value. A file with optimizer state holds both Adam
    moments of exactly the params that its stage trains."""
    path = Path(path)
    with contextlib.ExitStack() as files:
        # mapped rather than read into one file-sized heap block, which a
        # fragmented heap can only serve with fresh, page-faulted memory; each
        # tensor is copied once, straight out of the map
        try:
            fh = files.enter_context(open(path, "rb"))
            blob = files.enter_context(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
        except (OSError, ValueError) as exc:  # ValueError: an empty file cannot be mapped
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        return _load_mapped(blob, path)


def _load_mapped(blob, path) -> Checkpoint:
    """The checkpoint held in blob, the mapped file at path."""
    sections = _read_sections(blob, path)
    meta = _read_meta(blob[sections.pop("meta")] if "meta" in sections else None, path)
    try:
        cfg = TrainConfig.from_dict(meta["config"])
    except ConfigurationError as exc:
        raise CheckpointError(f"{path}: meta config is invalid: {exc}") from exc

    def tensor(key: str, shape: tuple) -> np.ndarray:
        a = _unpack_tensor(blob, sections.pop(key))
        if a.shape != shape:
            raise CheckpointError(f"{path}: section {key} has shape {a.shape}, "
                                  f"expected {shape}")
        if not np.isfinite(a).all():
            raise CheckpointError(f"{path}: section {key} has non-finite values")
        return a

    groups: dict[str, ParamGroup] = {}
    for group, (shapes, _) in GROUPS.items():
        groups[group] = {}
        for name, shape in shapes(cfg).items():
            full = f"{group}.{name}"
            if f"param:{full}" not in sections:
                raise CheckpointError(f"{path}: missing parameter section {full}")
            groups[group][name] = Param(tensor(f"param:{full}", shape), full)

    optimizer = None
    if meta["optimizer_step"] is not None:
        moments = {}
        for p in groups[TRAINS[meta["stage"]]].values():
            keys = (f"adam.m:{p.name}", f"adam.v:{p.name}")
            missing = [k for k in keys if k not in sections]
            if missing:
                raise CheckpointError(f"{path}: missing sections {missing} of a "
                                      f"stage-{meta['stage']} file")
            moments[p.name] = tuple(tensor(k, p.value.shape) for k in keys)
        optimizer = OptimizerState(step=meta["optimizer_step"], moments=moments)
    if sections:
        raise CheckpointError(f"{path}: unexpected sections {sorted(sections)}")

    return Checkpoint(stage=meta["stage"], config=cfg, **groups, optimizer=optimizer,
                      history=meta["history"])


def resume_checkpoint(out_dir, cfg: TrainConfig, stage: int) -> Checkpoint:
    """The newest epoch checkpoint in out_dir by epoch number, refused unless
    it is of `stage` with a config equal to cfg in every field but seed. The
    run goes on under its config, and its epoch streams key on its seed."""
    if out_dir is None:
        raise ConfigurationError("a resume continues the run in out_dir, and none was given")
    numbered = {p.stem.removeprefix("epoch_"): p for p in Path(out_dir).glob("epoch_*.ckpt")}
    epochs = {int(n): p for n, p in numbered.items() if n.isdecimal()}
    if not epochs:
        raise DependencyError(f"no epoch checkpoint in {out_dir} to resume from")
    resume = load_checkpoint(epochs[max(epochs)])
    if resume.stage != stage:
        raise CompatibilityError(
            f"cannot resume stage {stage} from a stage-{resume.stage} checkpoint")
    mismatches = resume.config.differences(cfg, [k for k in cfg.to_dict() if k != "seed"])
    if mismatches:
        raise CompatibilityError(f"checkpoint config differs from the resuming one: {mismatches}")
    return resume


# ---------------------------------------------------------------------------
# data preparation


@dataclass
class _Item:
    inputs: np.ndarray  # preprocessed slice (stage 1) or frozen slice embeddings (stage 2)
    text_vec: np.ndarray


def _require_kind(entries: list[dp.ManifestEntry], kind: str) -> None:
    for e in entries:
        if e.kind != kind:
            raise InputError(f"entry {e.id!r} has kind {e.kind!r}, expected {kind!r}")


def _text_vectors(entries, text_params, vocab) -> list[np.ndarray]:
    cache: dict[str, np.ndarray] = {}
    out = []
    for e in entries:
        caption = dp.build_caption(e)
        if caption not in cache:
            ids = dp.tokenize(caption, vocab)
            cache[caption] = enc.encode_text(ids, text_params)
        out.append(cache[caption])
    return out


def _stage1_items(entries, data_root, cfg, text_params) -> list[_Item]:
    root = Path(data_root)
    vols = dp.load_preprocessed([root / e.path for e in entries], cfg.image_size)
    for e, vol in zip(entries, vols):
        if len(vol) != 1:
            raise InputError(f"entry {e.id!r} is 2d but its sample has {len(vol)} slices")
    texts = _text_vectors(entries, text_params, cfg.vocab)
    return [_Item(inputs=v[0], text_vec=t) for v, t in zip(vols, texts)]


def _stage2_items(entries, data_root, cfg, text_params, image_params,
                  volumes=None) -> list[_Item]:
    root = Path(data_root)
    mats = enc.encode_samples([root / e.path for e in entries], cfg.image_size, image_params,
                              cfg.s_max, volumes)  # frozen, eval mode
    texts = _text_vectors(entries, text_params, cfg.vocab)
    return [_Item(inputs=m, text_vec=t) for m, t in zip(mats, texts)]


# ---------------------------------------------------------------------------
# training engine


def _forward(inputs: np.ndarray, ckpt: Checkpoint, rng, tape) -> np.ndarray:
    """Embeddings of a batch: images [B, H, W] (stage 1) or slice embeddings
    [B, n, d_model] (stage 2) -> [B, d_model]; an rng switches dropout on."""
    cfg = ckpt.config
    if ckpt.stage == 1:
        return enc.encode_image2d(inputs, ckpt.image, cfg.dropout_rate, rng, tape)
    return sp.attention_pool(inputs, ckpt.adapter, cfg.heads, cfg.dropout_rate, rng, tape)


def _batch_loss(items: list[_Item], idxs, ckpt, rng, tape):
    """InfoNCE of one batch, with one forward call per distinct input shape.

    Stage-2 volumes may differ in slice count; their outputs are joined along
    the batch axis, and the text rows follow the same order (InfoNCE does not
    change under a joint permutation of the pairs).
    """
    groups: dict[tuple, list[int]] = {}
    for i in idxs:
        groups.setdefault(items[i].inputs.shape, []).append(i)
    order = [i for group in groups.values() for i in group]
    outs = [_forward(np.stack([items[i].inputs for i in group]), ckpt, rng, tape)
            for group in groups.values()]
    img = outs[0] if len(outs) == 1 else dm.concat_rows(outs, tape)
    txt = np.stack([items[i].text_vec for i in order])
    return ct.batch_loss(img, txt, ckpt.config.tau, ckpt.config.symmetric, tape)


def _mean_val_loss(items: list[_Item], ckpt) -> float:
    losses = []
    n = len(items)
    batch_size = ckpt.config.batch_size
    for start in range(0, n, batch_size):
        idxs = range(start, min(start + batch_size, n))
        if len(idxs) < 2:
            break
        losses.append(_batch_loss(items, idxs, ckpt, None, None).item())
    return math.fsum(losses) / len(losses)


def _write_loss_csv(history: list[dict], path) -> None:
    lines = [",".join(_HISTORY_KEYS)]
    for h in history:
        lines.append(f"{h['epoch']},{h['lr']!r},{h['train_loss']!r},{h['val_loss']!r}")
    dp._write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _check_finite(values: np.ndarray, epoch: int, batch: int, what: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteError(f"epoch {epoch}, batch {batch}: non-finite {what}")


def _run_stage(ckpt: Checkpoint, items, val_items, out_dir) -> Checkpoint:
    """Train the group that ckpt's stage trains under ckpt's config, on from
    ckpt's history and optimizer state.

    Each epoch draws its shuffle and dropout masks from a Philox stream keyed
    by the seed of ckpt's config, the stage and the epoch, so a resumed run
    needs no saved generator state.
    """
    cfg, stage = ckpt.config, ckpt.stage
    trained = list(getattr(ckpt, TRAINS[stage]).values())
    if len(items) < cfg.batch_size:
        raise ConfigurationError(
            f"{len(items)} training samples is fewer than batch size {cfg.batch_size}")
    if len(val_items) < 2:
        raise ConfigurationError(f"validation set needs at least 2 samples, got {len(val_items)}")
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if not ckpt.history:  # fresh: no earlier run's epoch may pass for one of this run's
            for path in out_dir.glob("epoch_*.ckpt"):
                path.unlink()

    start_epoch = ckpt.epoch
    adam = Adam(trained, weight_decay=cfg.weight_decay, state=ckpt.optimizer)

    best_ckpt = None
    end_epoch = cfg.epochs
    if ckpt.history and start_epoch - 1 - ckpt.best_epoch >= cfg.patience:
        end_epoch = start_epoch  # the resumed run had already stopped early

    for epoch in range(start_epoch, end_epoch):
        rng = dm.make_rng(cfg.seed, f"train:stage{stage}:epoch:{epoch}")
        lr = cosine_lr(epoch, cfg)
        order = rng.permutation(len(items))
        batch_losses = []
        n_batches = len(items) // cfg.batch_size
        for b in range(n_batches):
            idxs = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            tape = Tape()
            loss = _batch_loss(items, idxs, ckpt, rng, tape)
            _check_finite(loss, epoch, b, "training loss")
            batch_losses.append(loss.item())
            dm.zero_grads(trained)
            tape.backward(loss)
            for p in trained:
                _check_finite(p.grad, epoch, b, f"gradient of {p.name}")
            adam.step(lr)
        train_loss = math.fsum(batch_losses) / len(batch_losses)
        val_loss = _mean_val_loss(val_items, ckpt)
        ckpt.history.append({"epoch": epoch, "lr": lr,
                             "train_loss": train_loss, "val_loss": val_loss})
        ckpt.optimizer = OptimizerState(adam.step_count, adam.moments)  # the snapshot copies it
        snap = snapshot_checkpoint(ckpt)
        if out_dir is not None:
            save_checkpoint(snap, out_dir / f"epoch_{epoch + 1:04d}.ckpt")
            _write_loss_csv(ckpt.history, out_dir / "loss.csv")
        if ckpt.best_epoch == epoch:
            best_ckpt = snap
        if epoch - ckpt.best_epoch >= cfg.patience:
            break

    if ckpt.history and start_epoch >= end_epoch:
        # a finished run resumed: loss.csv again, in case a kill cut its last write
        _write_loss_csv(ckpt.history, out_dir / "loss.csv")
    if best_ckpt is None:
        # zero epochs, or a resume in which no new epoch improved: the best epoch's file
        best_ckpt = (load_checkpoint(out_dir / f"epoch_{ckpt.best_epoch + 1:04d}.ckpt")
                     if ckpt.history else snapshot_checkpoint(ckpt))
    if out_dir is not None:
        save_checkpoint(best_ckpt, out_dir / f"stage{stage}.ckpt")
    return best_ckpt


def train_stage1(cfg: TrainConfig, train_entries, val_entries, data_root,
                 out_dir=None, resume: bool = False) -> Checkpoint:
    """Contrastively fine-tune the 2D image encoder; the text tower stays frozen.

    Returns the best-validation checkpoint. Given out_dir, the run writes its
    epoch checkpoints and loss CSV there, and resume continues it from there.
    """
    _require_kind(train_entries, "2d")
    _require_kind(val_entries, "2d")

    ckpt = resume_checkpoint(out_dir, cfg, 1) if resume else make_initial_checkpoint(cfg)
    items = _stage1_items(train_entries, data_root, cfg, ckpt.text)
    val_items = _stage1_items(val_entries, data_root, cfg, ckpt.text)
    return _run_stage(ckpt, items, val_items, out_dir)


def train_stage2(cfg: TrainConfig, train_entries, val_entries, data_root,
                 stage1_ckpt: Checkpoint | None, out_dir=None, resume: bool = False,
                 volumes: dict | None = None) -> Checkpoint:
    """Train the slice-pooling adapter on volumes; both encoders are frozen.

    Slice stacks are embedded once up front by encoders.encode_samples (the
    encoder is frozen), which encodes each preprocessing batch as it is
    flushed, so set-up holds the [n, d_model] rows and never the preprocessed
    split, and each epoch touches only the adapter parameters. `volumes`
    caches preprocessed volumes across calls, keyed by (sample path, image
    size); given one, set-up stores every volume in it. A fresh run deletes
    the epoch checkpoints in out_dir; a resume continues from the newest, which
    holds both encoders, so only a fresh run reads stage1_ckpt (else None).
    """
    _require_kind(train_entries, "3d")
    _require_kind(val_entries, "3d")

    if resume:
        ckpt = resume_checkpoint(out_dir, cfg, 2)
    else:
        if stage1_ckpt is None:
            raise DependencyError("a fresh stage-2 run needs a stage-1 checkpoint; "
                                  "train stage 1 first and pass its checkpoint")
        mismatches = stage1_ckpt.config.differences(cfg, TrainConfig.GEOMETRY)
        if mismatches:
            raise CompatibilityError(f"checkpoint geometry differs from config: {mismatches}")
        ckpt = snapshot_checkpoint(replace(stage1_ckpt, stage=2, config=cfg, optimizer=None,
                                           history=[]))
    items = _stage2_items(train_entries, data_root, cfg, ckpt.text, ckpt.image, volumes)
    val_items = _stage2_items(val_entries, data_root, cfg, ckpt.text, ckpt.image, volumes)
    return _run_stage(ckpt, items, val_items, out_dir)
