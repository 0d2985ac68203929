"""Dataset manifests, the VOL1 sample container, preprocessing, captions,
and synthetic corpus generation.

Manifests are JSON lists of entry records. load_manifest checks that each
sample exists with one listing per sample directory, so a directory costs in
proportion to its own size: synth writes directories that hold exactly their
manifest's samples, and a small manifest over a huge shared directory pays a
whole listing. With a warm page cache a listing costs about a tenth of a
per-entry is_file() check per name, so it loses once a directory holds over
about 10 times the samples its manifest names (README). _sample_path names
an entry's sample as pathlib would, without a pathlib parse per sample.
Samples are little-endian VOL1 files (magic, n/H/W as u32, then float32
voxels, slice-major), passed from load_volume to the encoder as plain
float64 `[n, H, W]` arrays (n = 1 in 2D). load_volume alone checks voxels
for finiteness; save_volume refuses what load_volume would refuse.
Preprocessing is always resize first, z-score second. Both act on
`[..., H, W]` arrays, so a volume is one call of each; the statistics are
per image (slice), taken by one reduction over the image axes of a
C-contiguous array. Splits are preprocessed by preprocessed_batches: samples
of one image size share each preprocess_volume call, a batch closing at the
sample that brings it to SLICE_BATCH slices, and each sample keeps the bits
it gets alone. It yields each batch as it is flushed; load_preprocessed
collects them, and encoders.encode_samples encodes each one at once.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffmath import fnv1a64, make_rng
from .errors import ConfigurationError, FormatError, InputError, LoadError, WriteError

ZSCORE_EPS = 1e-8  # the least std zscore divides by
# Slices per preprocess_volume call of preprocessed_batches and per
# encode_image2d call of encoders.encode_frozen: big enough to amortise numpy
# call overhead, small enough that a batch's gathers and activations stay in
# cache, and the most preprocessed slices that encoders.encode_samples holds.
SLICE_BATCH = 64

_KINDS = ("2d", "3d")
_SPLITS = ("train", "val", "test")
_MANIFEST_FIELDS = ("id", "path", "kind", "body_region", "modality", "condition", "label", "split")


@dataclass
class ManifestEntry:
    id: str
    path: str
    kind: str
    body_region: str
    modality: str
    condition: str | None
    label: int
    split: str


# ---------------------------------------------------------------------------
# manifests


def _check_entry(raw: dict, index: int) -> ManifestEntry:
    where = f"entry {index}"
    if not isinstance(raw, dict):
        raise LoadError(f"{where}: expected an object, got {type(raw).__name__}")
    missing = [k for k in _MANIFEST_FIELDS if k != "condition" and k not in raw]
    if missing:
        raise LoadError(f"{where}: missing fields {missing}")
    unknown = [k for k in raw if k not in _MANIFEST_FIELDS]
    if unknown:
        raise LoadError(f"{where}: unknown fields {unknown}")
    e = ManifestEntry(
        id=raw["id"], path=raw["path"], kind=raw["kind"],
        body_region=raw["body_region"], modality=raw["modality"],
        condition=raw.get("condition"), label=raw["label"], split=raw["split"],
    )
    if not isinstance(e.id, str) or not e.id:
        raise LoadError(f"{where}: id must be a non-empty string")
    for name in ("path", "body_region", "modality"):
        if not isinstance(getattr(e, name), str):
            raise LoadError(f"{where} (id {e.id!r}): {name} must be a string")
    if e.kind not in _KINDS:
        raise LoadError(f"{where} (id {e.id!r}): kind must be one of {_KINDS}, got {e.kind!r}")
    if e.split not in _SPLITS:
        raise LoadError(f"{where} (id {e.id!r}): split must be one of {_SPLITS}, got {e.split!r}")
    if not isinstance(e.label, int) or isinstance(e.label, bool) or e.label < 0:
        raise LoadError(f"{where} (id {e.id!r}): label must be an integer >= 0")
    if e.condition is not None and not isinstance(e.condition, str):
        raise LoadError(f"{where} (id {e.id!r}): condition must be a string or null")
    return e


def load_manifest(path) -> list[ManifestEntry]:
    """Load and validate a manifest; entry paths are resolved relative to it."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read manifest {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"manifest {path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, list):
        raise LoadError(f"manifest {path}: top level must be a list of entries")

    entries = [_check_entry(item, i) for i, item in enumerate(raw)]
    parent = os.fspath(path.parent)
    listed: dict[str, frozenset] = {}  # entry path's directory part -> its file names
    seen: dict[str, int] = {}
    for i, e in enumerate(entries):
        if e.id in seen:
            raise LoadError(f"entry {i}: duplicate id {e.id!r} (first at entry {seen[e.id]})")
        seen[e.id] = i
        head, name = os.path.split(e.path)
        if head not in listed:
            listed[head] = _listed_files(os.path.join(parent, head))
        if name in listed[head]:
            continue
        sample = path.parent / e.path
        try:
            found = sample.is_file()
        except OSError as exc:  # is_file() passes on errors such as ENAMETOOLONG
            raise LoadError(f"entry {i} (id {e.id!r}): cannot check sample file: {exc}") from exc
        if not found:
            raise LoadError(f"entry {i} (id {e.id!r}): sample file not found: {sample}")
    return entries


def _listed_files(directory: str) -> frozenset:
    """The names in directory that Path.is_file() calls files, following
    symlinks, from one listing, which stats only symlinks. Empty if the
    directory cannot be listed or searched, or an entry cannot be stat-ed (a
    symlink loop), so each name in it takes the is_file() check instead. The
    search check uses the effective ids where the platform can (not Windows)."""
    try:
        if not os.access(directory, os.X_OK,
                         effective_ids=os.access in os.supports_effective_ids):
            return frozenset()
        with os.scandir(directory) as listing:
            return frozenset(d.name for d in listing if d.is_file())
    except (OSError, ValueError):  # ValueError: a NUL byte in the path
        return frozenset()


_PLAIN_RELATIVE = re.compile(r"[^/.][^/]*(?:/[^/.][^/]*)*")  # no empty or dot-led component


def _sample_path(root: Path, rel: str) -> str:
    """str(root / rel): where the entry path rel of a manifest in root names
    its sample. Where the separator is "/", a plain relative rel is joined as
    a string. pathlib interns each component it parses, so each load would
    intern its split's sample names anew; callers that joined with pathlib
    read eval-3d peak RSS 4.6% higher in every benchmark pair. The likely
    cause, not verified, is intern-table resizes that this churn forces once
    the heap has grown."""
    if os.sep != "/" or not _PLAIN_RELATIVE.fullmatch(rel):
        return str(root / rel)
    base = str(root)
    return rel if base == "." else os.path.join(base, rel)


def _write_atomic(path, chunks) -> None:
    """Write byte chunks to a temporary file in path's directory, then
    os.replace it over path: a failed write leaves an earlier file at path as
    it was and no partial file behind. An OSError is a WriteError naming path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # such as ENOTDIR: then no tmp was made
            tmp.unlink()
        if isinstance(exc, OSError):
            raise WriteError(f"cannot write {path}: {exc}") from exc
        raise


def _make_dirs(path) -> None:
    """Create directory path and its parents, or raise WriteError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise WriteError(f"cannot create directory {path}: {exc}") from exc


def save_manifest(entries: list[ManifestEntry], path) -> None:
    records = [{k: getattr(e, k) for k in _MANIFEST_FIELDS} for e in entries]
    _write_atomic(path, [(json.dumps(records, indent=2) + "\n").encode("utf-8")])


# ---------------------------------------------------------------------------
# VOL1 container

_VOL1_MAGIC = b"VOL1"
_VOL1_HEADER = struct.Struct("<III")


def save_volume(voxels: np.ndarray, path) -> None:
    """Write `[n, H, W]` voxels as VOL1; refuse, before writing, another
    shape, an empty axis or values not finite as float32."""
    a = np.asarray(voxels)
    if a.ndim != 3 or min(a.shape) < 1:
        raise InputError(f"{path}: voxels must be [n, H, W] with every size >= 1, "
                         f"got shape {a.shape}")
    with np.errstate(over="ignore"):
        f4 = a.astype("<f4")
    if not np.isfinite(f4).all():
        raise InputError(f"{path}: voxel values are not finite as float32")
    _write_atomic(path, [_VOL1_MAGIC, _VOL1_HEADER.pack(*a.shape), f4.tobytes(order="C")])


def load_volume(path) -> np.ndarray:
    """Read VOL1 as C-contiguous float64 `[n, H, W]` voxels, checked finite."""
    try:
        with open(os.fspath(path), "rb") as fh:  # os.fspath: an int is no file descriptor here
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if blob[:4] != _VOL1_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {_VOL1_MAGIC!r}")
    if len(blob) < 4 + _VOL1_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    n, h, w = _VOL1_HEADER.unpack_from(blob, 4)
    if n < 1 or h < 1 or w < 1:
        raise FormatError(f"{path}: invalid dimensions {(n, h, w)}")
    expected = 4 + _VOL1_HEADER.size + 4 * n * h * w
    if len(blob) != expected:
        raise FormatError(f"{path}: payload is {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", offset=4 + _VOL1_HEADER.size)
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: non-finite voxel values")
    return data.astype(np.float64).reshape(n, h, w)


# ---------------------------------------------------------------------------
# preprocessing


@functools.lru_cache(maxsize=8)
def _resize_plan(h: int, w: int, out_h: int, out_w: int) -> tuple:
    """Corner indices and the four corner weight planes of one resize size,
    read-only because every call with that size shares them."""
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    y0c = np.clip(y0.astype(int), 0, h - 1)[:, None]
    y1c = np.clip(y0.astype(int) + 1, 0, h - 1)[:, None]
    x0c = np.clip(x0.astype(int), 0, w - 1)[None, :]
    x1c = np.clip(x0.astype(int) + 1, 0, w - 1)[None, :]
    plan = (y0c, y1c, x0c, x1c, (1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of each `[H, W]` image of `[..., H, W]`, with pixel
    centers at (i + 0.5) / size and border replicate. The index and weight
    plan of each (H, W, out_h, out_w) is built once and cached (last 8 sizes)."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim < 2:
        raise InputError(f"resize_bilinear expects [..., H, W] images, got shape {a.shape}")
    h, w = a.shape[-2:]
    if out_h < 1 or out_w < 1:
        raise InputError(f"target size must be >= 1, got {(out_h, out_w)}")

    y0c, y1c, x0c, x1c, w00, w01, w10, w11 = _resize_plan(h, w, out_h, out_w)
    out = (w00 * a[..., y0c, x0c] + w01 * a[..., y0c, x1c]
           + w10 * a[..., y1c, x0c] + w11 * a[..., y1c, x1c])
    return out


def zscore(img: np.ndarray) -> np.ndarray:
    """Standardize each `[H, W]` image of `[..., H, W]` to zero mean and unit
    population std (at least ZSCORE_EPS); constant images map to zeros. The
    moments come from one mean and one std reduction over the last two axes
    of a C-contiguous array, so an image's bits do not depend on its memory
    layout or batch."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim < 2:
        raise InputError(f"zscore expects [..., H, W] images, got shape {a.shape}")
    a = np.ascontiguousarray(a)
    mean = a.mean(axis=(-2, -1), keepdims=True)
    std = a.std(axis=(-2, -1), keepdims=True)
    return (a - mean) / np.maximum(std, ZSCORE_EPS)


def preprocess_volume(volume: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize then z-score each slice of `[n, H, W]` voxels, in that order."""
    return zscore(resize_bilinear(volume, out_h, out_w))


def preprocessed_batches(paths, size: int):
    """Yield (paths, pieces) for each batch that load_preprocessed preprocesses:
    each path's sample through load_volume then preprocess_volume to size x
    size, bit for bit as one sample at a time. A path listed twice is loaded
    once.

    Samples are read in order and their raw slices held per image size (H, W);
    once a size has SLICE_BATCH slices pending they are joined into one volume,
    preprocessed by one preprocess_volume call and split back into the yielded
    pieces, so at most one batch of raw slices per size is alive. The rest is
    flushed at the end.
    """
    pending: dict[tuple, list] = {}  # (H, W) -> [(path, raw [n, H, W])]
    slices: dict[tuple, int] = {}    # (H, W) -> slices pending

    def flush(hw):
        batch = pending.pop(hw)
        del slices[hw]
        out = preprocess_volume(np.concatenate([a for _, a in batch]), size, size)
        ends = np.cumsum([len(a) for _, a in batch])
        return [p for p, _ in batch], [out[e - len(a):e] for e, (_, a) in zip(ends, batch)]

    for path in dict.fromkeys(paths):
        raw = load_volume(path)
        hw = raw.shape[1:]
        pending.setdefault(hw, []).append((path, raw))
        slices[hw] = slices.get(hw, 0) + len(raw)
        if slices[hw] >= SLICE_BATCH:
            yield flush(hw)
    for hw in list(pending):
        yield flush(hw)


def load_preprocessed(paths, size: int) -> list[np.ndarray]:
    """The preprocessed_batches pieces of each path, in input order."""
    out = {}
    for done, pieces in preprocessed_batches(paths, size):
        out.update(zip(done, pieces))
    return [out[p] for p in paths]


# ---------------------------------------------------------------------------
# captions and tokens


def build_caption(entry: ManifestEntry) -> str:
    if not entry.body_region or not entry.body_region.strip():
        raise InputError(f"entry {entry.id!r}: body_region is required for a caption")
    if not entry.modality or not entry.modality.strip():
        raise InputError(f"entry {entry.id!r}: modality is required for a caption")
    base = f"{entry.body_region} {entry.modality}"
    if entry.condition:
        return f"{base} with {entry.condition}"
    return base


def tokenize(text: str, vocab: int) -> list[int]:
    """Lowercase, split on non-alphanumeric runs, hash each word (FNV-1a mod vocab)."""
    words = re.findall(r"[a-z0-9]+", text.lower())
    if not words:
        raise InputError(f"no alphanumeric content to tokenize in {text!r}")
    return [fnv1a64(w) % vocab for w in words]


# ---------------------------------------------------------------------------
# synthetic corpora

_PATTERNS = ("square", "stripe", "disk", "blank")

_SPLIT_FRACTIONS = (("train", 0.7), ("val", 0.1), ("test", 0.2))


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic corpus, validated when built.

    family "pattern": the class is a geometric marker (bright square, stripe,
    disk, or nothing) drawn at a fixed place on one randomly chosen slice.
    family "order-coded": all samples share the same multiset of slices and
    the class is encoded purely by which slice sits at position 0, so any
    order-invariant pooling is provably uninformative.
    """

    family: str
    classes: int = 2
    per_class: int = 200
    slices: int = 8
    height: int = 16
    width: int = 16
    kind: str = "3d"
    noise: float = 0.1

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.family not in ("pattern", "order-coded"):
            raise ConfigurationError(f"unknown synth family {self.family!r}")
        if self.kind not in _KINDS:
            raise ConfigurationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.classes < 2:
            raise ConfigurationError("need at least 2 classes")
        if self.per_class < 5:
            raise ConfigurationError("need at least 5 samples per class")
        if self.height < 8 or self.width < 8:
            raise ConfigurationError("images must be at least 8 x 8")
        if not 0.0 <= self.noise < np.inf:
            raise ConfigurationError(f"noise must be finite and >= 0, got {self.noise}")
        if self.family == "pattern" and self.classes > len(_PATTERNS):
            raise ConfigurationError(f"pattern family supports at most {len(_PATTERNS)} classes")
        if self.kind == "3d" and self.slices < 2:
            raise ConfigurationError("3d samples need at least 2 slices")
        if self.family == "order-coded":
            if self.kind != "3d":
                raise ConfigurationError("order-coded family is 3d only")
            if self.classes > self.slices:
                raise ConfigurationError("order-coded needs classes <= slices")


def _draw_pattern(img: np.ndarray, pattern: str) -> None:
    h, w = img.shape
    s = min(h, w)
    if pattern == "square":
        side = max(2, s // 4)
        img[s // 8: s // 8 + side, s // 8: s // 8 + side] += 2.0
    elif pattern == "stripe":
        band = max(2, h // 4)
        top = (h - band) // 2
        img[top: top + band, :] += 4.0
    elif pattern == "disk":
        r = s // 4
        yy, xx = np.ogrid[:h, :w]
        mask = (yy - h // 2) ** 2 + (xx - w // 2) ** 2 <= r * r
        img[mask] += 8.0
    elif pattern == "blank":
        pass
    else:
        raise ConfigurationError(f"unknown pattern {pattern!r}")


def _class_meta(spec: SynthSpec, label: int) -> dict:
    if spec.family == "pattern":
        pattern = _PATTERNS[label]
        condition = None if pattern == "blank" else f"{pattern} marker"
        return {"body_region": "Chest", "modality": "CT", "condition": condition}
    letter = chr(ord("A") + label)
    return {"body_region": "Brain", "modality": "MRI", "condition": f"Sequence {letter}"}


def _base_slices(spec: SynthSpec, seed: int) -> np.ndarray:
    """Order-coded slice types: a bright band per type plus fixed texture."""
    n, h, w = spec.slices, spec.height, spec.width
    out = np.zeros((n, h, w))
    for j in range(n):
        r = make_rng(seed, f"slicetype:{j}")
        out[j] = r.normal(0.0, 0.25, size=(h, w))
        top = (j * h) // n
        bottom = ((j + 1) * h) // n
        out[j, top:bottom, :] += 3.0
    return out


def _make_sample(spec: SynthSpec, seed: int, label: int, index: int,
                 base: np.ndarray | None) -> np.ndarray:
    r = make_rng(seed, f"sample:{label}:{index}")
    n = 1 if spec.kind == "2d" else spec.slices
    if spec.family == "pattern":
        vox = r.normal(0.0, spec.noise, size=(n, spec.height, spec.width))
        pattern = _PATTERNS[label]
        _draw_pattern(vox[int(r.integers(n))], pattern)
        return vox
    # order-coded: no per-sample noise, identical multiset for every sample
    others = [j for j in range(spec.slices) if j != label]
    order = [label] + [others[k] for k in r.permutation(len(others))]
    return base[order]


def _split_for(index: int, per_class: int) -> str:
    n_train = int(per_class * _SPLIT_FRACTIONS[0][1])
    n_val = int(per_class * _SPLIT_FRACTIONS[1][1])
    if index < n_train:
        return "train"
    if index < n_train + n_val:
        return "val"
    return "test"


def synth_dataset(spec: SynthSpec, seed: int, out_dir) -> list[ManifestEntry]:
    """Generate a corpus under out_dir: samples/, manifest.json, captions.json."""
    out_dir = Path(out_dir)
    _make_dirs(out_dir / "samples")

    base = _base_slices(spec, seed) if spec.family == "order-coded" else None
    entries: list[ManifestEntry] = []
    captions = []
    for label in range(spec.classes):
        meta = _class_meta(spec, label)
        for i in range(spec.per_class):
            sid = f"c{label}_{i:04d}"
            rel = f"samples/{sid}.vol"
            vol = _make_sample(spec, seed, label, i, base)
            save_volume(vol, out_dir / rel)
            entries.append(ManifestEntry(
                id=sid, path=rel, kind=spec.kind,
                body_region=meta["body_region"], modality=meta["modality"],
                condition=meta["condition"], label=label,
                split=_split_for(i, spec.per_class),
            ))
        cap_entry = ManifestEntry(id=f"class{label}", path="", kind=spec.kind,
                                  body_region=meta["body_region"], modality=meta["modality"],
                                  condition=meta["condition"], label=label, split="train")
        captions.append({"label": label, "body_region": meta["body_region"],
                         "modality": meta["modality"], "condition": meta["condition"],
                         "text": build_caption(cap_entry)})

    save_manifest(entries, out_dir / "manifest.json")
    save_captions(captions, out_dir / "captions.json")
    return entries


def save_captions(records: list[dict], path) -> None:
    """Write caption records (label, body_region, modality, condition, text)."""
    _write_atomic(path, [(json.dumps(records, indent=2) + "\n").encode("utf-8")])


def load_captions(path) -> list[str]:
    """The caption text of each class, by label, from a captions.json written
    by synth_dataset; a caption without a word is refused (InputError)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read captions {path}: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise LoadError(f"captions {path}: expected a non-empty list")
    by_label = {}
    for item in raw:
        if not isinstance(item, dict) or "label" not in item or "text" not in item:
            raise LoadError(f"captions {path}: each record needs label and text")
        label, text = item["label"], item["text"]
        if type(label) is not int or not isinstance(text, str):
            raise LoadError(f"captions {path}: label must be an integer and text a "
                            f"string, got {item!r}")
        if label in by_label:
            raise LoadError(f"captions {path}: label {label} appears more than once")
        by_label[label] = text
    labels = sorted(by_label)
    if labels != list(range(len(labels))):
        raise LoadError(f"captions {path}: labels must be 0..{len(labels) - 1}")
    captions = [by_label[c] for c in labels]
    for text in captions:  # the word check alone; the text encoder picks the vocab
        tokenize(text, 1)
    return captions
