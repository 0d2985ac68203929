"""Two-stage contrastive training and checkpointing.

Stage 1 fine-tunes the 2D image encoder against the frozen text encoder on
2D samples; stage 2 freezes both encoders and trains only the slice-pooling
adapter on volumes. Both stages share one engine: seeded shuffling, Adam with
decoupled weight decay, cosine-annealed learning rate, per-epoch checkpoints,
and early stopping on validation loss. Runs are bitwise reproducible for a
fixed config and seed, and an interrupted run resumed from any epoch
checkpoint reproduces the uninterrupted trajectory exactly.
"""

from __future__ import annotations

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
from .diffmath import Param, ParamGroup, Tape, Tensor
from .errors import (CheckpointError, CompatibilityError, ConfigurationError,
                     InputError, NonFiniteError)

CHECKPOINT_VERSION = 3
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
    """Adam with decoupled weight decay over the trainable params it was given."""

    def __init__(self, params: list[Param], weight_decay: float = 0.0,
                 state: OptimizerState | None = None):
        self.params = [p for p in params if p.trainable]
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigurationError("optimizer params must have unique names")
        self.weight_decay = weight_decay
        if state is None:
            self.step_count = 0
            self.moments = {p.name: (np.zeros_like(p.value.data), np.zeros_like(p.value.data))
                            for p in self.params}
        else:
            state = state.copy()
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
            g = p.grad.data
            m, v = self.moments[p.name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.value.data
            p.value.data -= lr * update

    def state(self) -> OptimizerState:
        return OptimizerState(self.step_count, self.moments).copy()


# ---------------------------------------------------------------------------
# checkpoints


# The parameter registry: group -> (its shape table, trainable at init, its
# init draw, or None for one draw per table in table order). This order, then
# each table's order, is the order of the param: sections in a checkpoint file.
GROUPS = {"text": (enc.text_shapes, False, None),
          "image": (enc.image_shapes, True, None),
          "adapter": (sp.adapter_shapes, True, sp.draw_adapter)}


def init_group(cfg: TrainConfig, group: str, seed: int) -> ParamGroup:
    """Draw every tensor of one group from N(0, INIT_STD^2)."""
    shapes, trainable, draw_group = GROUPS[group]
    draw = partial(dm.make_rng(seed, f"init:{group}").normal, 0.0, INIT_STD)
    values = (draw_group(cfg, draw) if draw_group
              else {name: draw(shape) for name, shape in shapes(cfg).items()})
    return {name: Param(value, trainable=trainable, name=f"{group}.{name}")
            for name, value in values.items()}


@dataclass
class Checkpoint:
    """Everything needed to evaluate or to resume training: all parameter
    groups, optimizer moments, progress counters, and the training RNG state."""

    stage: int
    epoch: int  # completed epochs
    config: TrainConfig
    text: ParamGroup
    image: ParamGroup
    adapter: ParamGroup
    optimizer: OptimizerState | None = None
    best_val_loss: float | None = None
    best_epoch: int | None = None
    rng_state: dict | None = None
    history: list[dict] = field(default_factory=list)

    def groups(self) -> dict[str, ParamGroup]:
        return {g: getattr(self, g) for g in GROUPS}

    def model_params(self) -> list[Param]:
        return [p for group in self.groups().values() for p in group.values()]


def make_initial_checkpoint(cfg: TrainConfig, stage: int = 1) -> Checkpoint:
    """A fresh, untrained checkpoint determined entirely by cfg.seed."""
    cfg.validate()
    return Checkpoint(stage=stage, epoch=0, config=cfg,
                      **{g: init_group(cfg, g, cfg.seed) for g in GROUPS})


def _copy_param(p: Param) -> Param:
    """A trainable value is copied; a frozen one is shared and marked
    read-only on both sides. No gradient is copied."""
    if p.trainable:
        return Param(p.value.data.copy(), trainable=True, name=p.name)
    p.value.data.flags.writeable = False
    return Param(p.value.data, trainable=False, name=p.name)


def snapshot_checkpoint(ckpt: Checkpoint) -> Checkpoint:
    """A copy that later training steps cannot mutate: trainable values and
    optimizer moments are copied, frozen values shared read-only."""
    groups = {g: {k: _copy_param(p) for k, p in group.items()}
              for g, group in ckpt.groups().items()}
    return replace(ckpt, **groups,
                   optimizer=ckpt.optimizer.copy() if ckpt.optimizer else None,
                   rng_state=json.loads(json.dumps(ckpt.rng_state)),  # None stays None
                   history=[dict(h) for h in ckpt.history])


def _tensor_parts(a: np.ndarray) -> list:
    """A tensor section's payload: its shape header, then its values as
    little-endian float64 bytes, which view `a` when it is C-contiguous
    float64 already."""
    a = np.asarray(a, dtype="<f8", order="C")  # not ascontiguousarray, which makes 0-d 1-d
    return [struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape), a.reshape(-1).view(np.uint8)]


def _unpack_tensor(buf: bytes) -> np.ndarray:
    if len(buf) < 4:
        raise CheckpointError("tensor section truncated")
    (ndim,) = struct.unpack_from("<I", buf, 0)
    if len(buf) < 4 + 4 * ndim:
        raise CheckpointError("tensor section truncated")
    shape = struct.unpack_from(f"<{ndim}I", buf, 4)
    ofs = 4 + 4 * ndim
    count = int(np.prod(shape)) if ndim else 1
    if len(buf) != ofs + 8 * count:
        raise CheckpointError("tensor payload length mismatch")
    return np.frombuffer(buf, dtype="<f8", offset=ofs).astype(np.float64).reshape(shape)


def _rng_state_to_json(state: dict) -> dict:
    def conv(x):
        if isinstance(x, np.ndarray):
            return [int(v) for v in x.tolist()]
        if isinstance(x, (np.integer,)):
            return int(x)
        if isinstance(x, dict):
            return {k: conv(v) for k, v in x.items()}
        return x
    return conv(state)


def _rng_state_from_json(state: dict) -> dict:
    out = dict(state)
    inner = dict(out["state"])
    inner["counter"] = np.array(inner["counter"], dtype=np.uint64)
    inner["key"] = np.array(inner["key"], dtype=np.uint64)
    out["state"] = inner
    out["buffer"] = np.array(out["buffer"], dtype=np.uint64)
    return out


def _sections(ckpt: Checkpoint):
    """(name, payload parts) of each checkpoint section, in file order."""
    meta = {
        "stage": ckpt.stage,
        "epoch": ckpt.epoch,
        "config": ckpt.config.to_dict(),
        "best_val_loss": ckpt.best_val_loss,
        "best_epoch": ckpt.best_epoch,
        "rng_state": ckpt.rng_state,
        "history": ckpt.history,
        "optimizer_step": ckpt.optimizer.step if ckpt.optimizer else None,
    }
    yield "meta", [json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")]
    for p in ckpt.model_params():
        yield f"param:{p.name}", _tensor_parts(p.value.data)
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


def _read_sections(blob: bytes, path) -> dict[str, bytes]:
    if blob[:4] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unknown checkpoint version {version}")
    sections: dict[str, bytes] = {}
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
        sections[name] = blob[ofs:ofs + plen]
        ofs += plen
    return sections


def _count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_HISTORY_KEYS = ("epoch", "lr", "train_loss", "val_loss")  # of a history record; loss.csv columns


def _history(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(h, dict) and all(_number(h.get(k)) for k in _HISTORY_KEYS) for h in v)


# what each meta field beside config accepts
_META_FIELDS = {
    "stage": ("1 or 2", lambda v: _count(v) and v in (1, 2)),
    "epoch": ("an integer >= 0", _count),
    "best_val_loss": ("a number or null", lambda v: v is None or _number(v)),
    "best_epoch": ("an integer >= 0 or null", lambda v: v is None or _count(v)),
    "rng_state": ("an object or null", lambda v: v is None or isinstance(v, dict)),
    "history": ("a list of objects with numbers at " + ", ".join(_HISTORY_KEYS), _history),
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
    for key, (what, accepts) in _META_FIELDS.items():
        if not accepts(meta[key]):
            raise CheckpointError(f"{path}: meta {key} must be {what}, got {meta[key]!r:.80}")
    return meta


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, refusing any section the registry does not expect
    for the file's own config and any tensor of the wrong shape or with a
    non-finite value."""
    path = Path(path)
    try:
        # mapped rather than read into one file-sized heap block, which a
        # fragmented heap can only serve with fresh, page-faulted memory
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as blob:
            sections = _read_sections(blob, path)
    except (OSError, ValueError) as exc:  # ValueError: an empty file cannot be mapped
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    meta = _read_meta(sections.pop("meta", None), path)
    try:
        cfg = TrainConfig.from_dict(meta["config"])
    except ConfigurationError as exc:
        raise CheckpointError(f"{path}: meta config is invalid: {exc}") from exc

    def tensor(key: str, shape: tuple) -> np.ndarray:
        a = _unpack_tensor(sections.pop(key))
        if a.shape != shape:
            raise CheckpointError(f"{path}: section {key} has shape {a.shape}, "
                                  f"expected {shape}")
        if not np.isfinite(a).all():
            raise CheckpointError(f"{path}: section {key} has non-finite values")
        return a

    groups: dict[str, ParamGroup] = {}
    for group, (shapes, trainable, _) in GROUPS.items():
        groups[group] = {}
        for name, shape in shapes(cfg).items():
            full = f"{group}.{name}"
            if f"param:{full}" not in sections:
                raise CheckpointError(f"{path}: missing parameter section {full}")
            groups[group][name] = Param(tensor(f"param:{full}", shape), trainable, full)

    optimizer = None
    if meta["optimizer_step"] is not None:
        trainables = {p.name: p.value.shape for group in groups.values()
                      for p in group.values() if p.trainable}
        moments = {}
        for key in [k for k in sections if k.startswith("adam.m:")]:
            name = key[len("adam.m:"):]
            if name not in trainables:
                raise CheckpointError(f"{path}: {key} names no trainable parameter")
            if f"adam.v:{name}" not in sections:
                raise CheckpointError(f"{path}: missing second moment for {name}")
            moments[name] = (tensor(key, trainables[name]),
                             tensor(f"adam.v:{name}", trainables[name]))
        optimizer = OptimizerState(step=meta["optimizer_step"], moments=moments)
    if sections:
        raise CheckpointError(f"{path}: unexpected sections {sorted(sections)}")

    return Checkpoint(stage=meta["stage"], epoch=meta["epoch"], config=cfg, **groups,
                      optimizer=optimizer, best_val_loss=meta["best_val_loss"],
                      best_epoch=meta["best_epoch"], rng_state=meta["rng_state"],
                      history=meta["history"])


def check_geometry(ckpt: Checkpoint, cfg: TrainConfig) -> None:
    mismatches = {k: (getattr(ckpt.config, k), getattr(cfg, k))
                  for k in TrainConfig.GEOMETRY
                  if getattr(ckpt.config, k) != getattr(cfg, k)}
    if mismatches:
        raise CompatibilityError(f"checkpoint geometry differs from config: {mismatches}")


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
            cache[caption] = enc.encode_text(ids, text_params).data
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


def _forward(stage: int, inputs: np.ndarray, ckpt: Checkpoint, cfg: TrainConfig,
             train_mode: bool, rng, tape) -> Tensor:
    """Embeddings of a batch: images [B, H, W] (stage 1) or slice embeddings
    [B, n, d_model] (stage 2) -> [B, d_model]."""
    if stage == 1:
        return enc.encode_image2d(inputs, ckpt.image, train_mode, cfg.dropout_rate, rng, tape)
    return sp.attention_pool(Tensor(inputs), ckpt.adapter, cfg.heads, train_mode,
                             cfg.dropout_rate, rng, tape)


def _batch_loss(items: list[_Item], idxs, stage, ckpt, cfg, loss_cfg, train_mode, rng, tape):
    """InfoNCE of one batch, with one forward call per distinct input shape.

    Stage-2 volumes may differ in slice count; their outputs are joined along
    the batch axis, and the text rows follow the same order (InfoNCE does not
    change under a joint permutation of the pairs).
    """
    groups: dict[tuple, list[int]] = {}
    for i in idxs:
        groups.setdefault(items[i].inputs.shape, []).append(i)
    order = [i for group in groups.values() for i in group]
    outs = [_forward(stage, np.stack([items[i].inputs for i in group]), ckpt, cfg,
                     train_mode, rng, tape)
            for group in groups.values()]
    img = outs[0] if len(outs) == 1 else dm.concat_rows(outs, tape)
    txt = Tensor(np.stack([items[i].text_vec for i in order]))
    return ct.batch_loss(img, txt, loss_cfg, tape)


def _mean_val_loss(items: list[_Item], stage, ckpt, cfg, loss_cfg) -> float:
    losses = []
    n = len(items)
    for start in range(0, n, cfg.batch_size):
        idxs = range(start, min(start + cfg.batch_size, n))
        if len(idxs) < 2:
            break
        losses.append(_batch_loss(items, idxs, stage, ckpt, cfg, loss_cfg,
                                  False, None, None).item())
    if not losses:
        raise ConfigurationError("validation set needs at least 2 samples")
    return math.fsum(losses) / len(losses)


def _write_loss_csv(history: list[dict], path) -> None:
    lines = [",".join(_HISTORY_KEYS)]
    for h in history:
        lines.append(f"{h['epoch']},{h['lr']!r},{h['train_loss']!r},{h['val_loss']!r}")
    dp._write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _check_finite(values: np.ndarray, epoch: int, batch: int, what: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteError(f"epoch {epoch}, batch {batch}: non-finite {what}")


def _run_stage(cfg: TrainConfig, stage: int, ckpt: Checkpoint, items, val_items,
               trainables: list[Param], out_dir, label: str) -> Checkpoint:
    """Train on from ckpt's epoch, history, best, optimizer and rng state."""
    if len(items) < cfg.batch_size:
        raise ConfigurationError(
            f"{len(items)} training samples is fewer than batch size {cfg.batch_size}")
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    loss_cfg = ct.LossConfig(tau=cfg.tau, symmetric=cfg.symmetric)
    rng = dm.make_rng(cfg.seed, f"train:stage{stage}")
    start_epoch = ckpt.epoch
    history = [dict(h) for h in ckpt.history]
    best_val = ckpt.best_val_loss
    best_epoch = ckpt.best_epoch
    adam = Adam(trainables, weight_decay=cfg.weight_decay, state=ckpt.optimizer)
    if ckpt.rng_state is not None:
        try:
            rng.bit_generator.state = _rng_state_from_json(ckpt.rng_state)
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise CheckpointError(f"resume checkpoint has a malformed rng_state: "
                                  f"{exc!r}") from exc

    ckpt.stage = stage
    best_ckpt = None
    end_epoch = cfg.epochs
    if best_epoch is not None and start_epoch - 1 - best_epoch >= cfg.patience:
        end_epoch = start_epoch  # the resumed run had already stopped early

    for epoch in range(start_epoch, end_epoch):
        lr = cosine_lr(epoch, cfg)
        order = rng.permutation(len(items))
        batch_losses = []
        n_batches = len(items) // cfg.batch_size
        for b in range(n_batches):
            idxs = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            tape = Tape()
            loss = _batch_loss(items, idxs, stage, ckpt, cfg, loss_cfg, True, rng, tape)
            _check_finite(loss.data, epoch, b, "training loss")
            batch_losses.append(loss.item())
            dm.zero_grads(trainables)
            tape.backward(loss)
            for p in trainables:
                _check_finite(p.grad.data, epoch, b, f"gradient of {p.name}")
            adam.step(lr)
        train_loss = math.fsum(batch_losses) / len(batch_losses)
        val_loss = _mean_val_loss(val_items, stage, ckpt, cfg, loss_cfg)
        history.append({"epoch": epoch, "lr": lr,
                        "train_loss": train_loss, "val_loss": val_loss})

        improved = best_val is None or val_loss < best_val
        if improved:
            best_val = val_loss
            best_epoch = epoch

        ckpt.epoch = epoch + 1
        ckpt.optimizer = OptimizerState(adam.step_count, adam.moments)  # the snapshot copies it
        ckpt.best_val_loss = best_val
        ckpt.best_epoch = best_epoch
        ckpt.rng_state = _rng_state_to_json(rng.bit_generator.state)
        ckpt.history = history
        snap = snapshot_checkpoint(ckpt)
        if out_dir is not None:
            save_checkpoint(snap, out_dir / f"epoch_{epoch + 1:04d}.ckpt")
            _write_loss_csv(history, out_dir / "loss.csv")
        if improved:
            best_ckpt = snap
        if epoch - best_epoch >= cfg.patience:
            break

    if history and start_epoch >= end_epoch and out_dir is not None:
        # a finished run resumed: loss.csv again, in case a kill cut its last write
        _write_loss_csv(history, out_dir / "loss.csv")
    if best_ckpt is None:
        # either zero epochs (return the starting state) or a resumed run in
        # which no new epoch improved; recover the best epoch from disk if we can
        if best_epoch is not None and out_dir is not None:
            best_path = out_dir / f"epoch_{best_epoch + 1:04d}.ckpt"
            if best_path.is_file():
                best_ckpt = load_checkpoint(best_path)
        if best_ckpt is None:
            best_ckpt = snapshot_checkpoint(ckpt)
    if out_dir is not None:
        save_checkpoint(best_ckpt, out_dir / f"{label}.ckpt")
    return best_ckpt


def train_stage1(cfg: TrainConfig, train_entries, val_entries, data_root,
                 out_dir=None, resume: Checkpoint | None = None) -> Checkpoint:
    """Contrastively fine-tune the 2D image encoder; the text tower stays frozen.

    Returns the best-validation checkpoint; per-epoch checkpoints and a loss
    CSV are written when out_dir is given.
    """
    cfg.validate()
    _require_kind(train_entries, "2d")
    _require_kind(val_entries, "2d")

    if resume is not None:
        check_geometry(resume, cfg)
        if resume.stage != 1:
            raise CompatibilityError(f"cannot resume stage 1 from a stage-{resume.stage} checkpoint")
        ckpt = snapshot_checkpoint(resume)
    else:
        ckpt = make_initial_checkpoint(cfg, stage=1)

    items = _stage1_items(train_entries, data_root, cfg, ckpt.text)
    val_items = _stage1_items(val_entries, data_root, cfg, ckpt.text)
    return _run_stage(cfg, 1, ckpt, items, val_items, list(ckpt.image.values()),
                      out_dir, "stage1")


def train_stage2(cfg: TrainConfig, train_entries, val_entries, data_root,
                 stage1_ckpt: Checkpoint, out_dir=None, resume: Checkpoint | None = None,
                 volumes: dict | None = None) -> Checkpoint:
    """Train the slice-pooling adapter on volumes; both encoders are frozen.

    Slice stacks are embedded once up front by encoders.encode_samples (the
    encoder is frozen), which encodes each preprocessing batch as it is
    flushed, so set-up holds the [n, d_model] rows and never the preprocessed
    split, and each epoch touches only the adapter parameters. `volumes`
    caches preprocessed volumes across calls, as in datapipe.load_preprocessed;
    given one, set-up stores every volume in it.
    """
    cfg.validate()
    _require_kind(train_entries, "3d")
    _require_kind(val_entries, "3d")
    check_geometry(stage1_ckpt, cfg)

    if resume is not None:
        check_geometry(resume, cfg)
        if resume.stage != 2:
            raise CompatibilityError(f"cannot resume stage 2 from a stage-{resume.stage} checkpoint")
        ckpt = snapshot_checkpoint(resume)
    else:
        ckpt = snapshot_checkpoint(stage1_ckpt)
        ckpt.optimizer = None
        ckpt.best_val_loss = None
        ckpt.best_epoch = None
        ckpt.rng_state = None
        ckpt.history = []
        ckpt.epoch = 0
    for p in ckpt.image.values():  # stage-2 freeze contract
        p.trainable = False

    items = _stage2_items(train_entries, data_root, cfg, ckpt.text, ckpt.image, volumes)
    val_items = _stage2_items(val_entries, data_root, cfg, ckpt.text, ckpt.image, volumes)
    return _run_stage(cfg, 2, ckpt, items, val_items, list(ckpt.adapter.values()),
                      out_dir, "stage2")
