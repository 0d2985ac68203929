"""Run configuration shared by model construction, training, and the CLI.

A TrainConfig is immutable, and every constructor and dataclasses.replace
validate it, so code that holds one never checks it again.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import CompatibilityError, ConfigurationError

# what a field of each annotated type accepts; bool is an int subclass, but
# no number field takes one, and the bound on a real number refuses nan,
# infinities and integers too large for a float
_ACCEPTS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite real number",
              lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and abs(v) <= sys.float_info.max)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
}


@dataclass(frozen=True)
class TrainConfig:
    """Flat bundle of model geometry and optimization settings.

    One seed fans out to every stochastic subsystem through named sub-seeds
    (init, shuffle, dropout, ...), so components can be varied independently.
    """

    epochs: int = 20
    batch_size: int = 32
    lr0: float = 1e-4
    lr_min: float = 1e-6
    weight_decay: float = 1e-4
    dropout_rate: float = 0.5
    tau: float = 0.07
    symmetric: bool = True
    heads: int = 4
    d_model: int = 64
    d_hidden: int = 128
    d_text: int = 64
    vocab: int = 4096
    patch_size: int = 8
    image_size: int = 32
    s_max: int = 64
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        self.validate()

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    def validate(self) -> "TrainConfig":
        """self, or ConfigurationError naming the first invalid field. Every
        construction runs it, so a config that exists is valid."""
        for f in fields(self):
            value = getattr(self, f.name)
            what, accepts = _ACCEPTS[f.type]
            if not accepts(value):
                raise ConfigurationError(f"{f.name} must be {what}, got {value!r}")
        if min(self.d_model, self.d_hidden, self.d_text, self.vocab, self.s_max,
               self.patch_size, self.image_size) < 1:
            raise ConfigurationError("model dimensions must be positive")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        if self.batch_size < 2:
            raise ConfigurationError("batch_size must be >= 2 (contrastive loss needs negatives)")
        if not (self.lr0 > self.lr_min >= 0.0):
            raise ConfigurationError(f"need lr0 > lr_min >= 0, got lr0={self.lr0}, lr_min={self.lr_min}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.tau <= 0.0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigurationError(f"heads ({self.heads}) must divide d_model ({self.d_model})")
        if self.image_size % self.patch_size != 0:
            raise ConfigurationError(
                f"patch_size ({self.patch_size}) must divide image_size ({self.image_size})")
        if self.patience < 1:
            raise ConfigurationError("patience must be >= 1")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def differences(self, other: "TrainConfig", names) -> dict[str, tuple]:
        """{name: (mine, other's)} for each field among names whose values differ."""
        return {k: (getattr(self, k), getattr(other, k))
                for k in names if getattr(self, k) != getattr(other, k)}

    def check_geometry(self, cfg: "TrainConfig") -> None:
        """CompatibilityError unless this checkpoint config's GEOMETRY equals cfg's."""
        mismatches = self.differences(cfg, self.GEOMETRY)
        if mismatches:
            raise CompatibilityError(f"checkpoint geometry differs from config: {mismatches}")

    @classmethod
    def from_dict(cls, data: dict, overrides: dict | None = None) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        merged = dict(data)
        if overrides:
            merged.update({k: v for k, v in overrides.items() if v is not None})
        unknown = sorted(set(merged) - known)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {unknown}")
        return cls(**merged)

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "TrainConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"config {path}: top level must be an object")
        return cls.from_dict(data, overrides)

    # geometry fields that a checkpoint must agree on to be loadable against
    # a config (optimization settings are free to differ)
    GEOMETRY = ("d_model", "d_hidden", "d_text", "vocab", "patch_size",
                "image_size", "s_max", "heads")
