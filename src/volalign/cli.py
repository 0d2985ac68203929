"""Command-line surface: synth, train2d, train3d, probe, match, ablate, export.

Every command resolves its configuration up front (JSON config file plus flag
overrides), persists it with the tool version into the output directory, and
derives all randomness from the seed. Failures print one machine-parsable
line "error:<category>: <message>" and exit with the code that their error
class carries (errors.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

from . import __version__
from . import datapipe as dp
from . import evalkit as ek
from . import trainer as tr
from .config import TrainConfig
from .errors import DependencyError, InputError, VolalignError

EXIT_OK = 0
EXIT_UNEXPECTED = 1  # an untyped exception; a VolalignError exits with its exit_code
RESUME_HELP = "continue --out from its newest epoch checkpoint (a fresh run deletes them)"


def _write_run_config(out_dir: Path, command: str, cfg: TrainConfig | None,
                      extra: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"tool": "volalign", "version": __version__, "command": command,
               "config": cfg.to_dict() if cfg is not None else None}
    payload.update(extra)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    dp._write_atomic(out_dir / "run_config.json", [text.encode("utf-8")])


def _write_report(out_dir: Path, stem: str, report) -> None:
    """<stem>.csv and <stem>.txt, each written atomically."""
    dp._write_atomic(out_dir / f"{stem}.csv", [report.to_csv().encode("utf-8")])
    dp._write_atomic(out_dir / f"{stem}.txt", [report.to_text().encode("utf-8")])


def _config_overrides(args) -> dict:
    """The config flags given on the command line; a field without a flag is None."""
    return {f.name: getattr(args, f.name, None) for f in dataclasses.fields(TrainConfig)}


def _load_config(args) -> TrainConfig:
    overrides = _config_overrides(args)
    if getattr(args, "config", None):
        return TrainConfig.from_json(args.config, overrides)
    return TrainConfig.from_dict({}, overrides)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags below override it)")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr0", type=float)
    p.add_argument("--lr-min", dest="lr_min", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--dropout", dest="dropout_rate", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--heads", type=int)
    p.add_argument("--d-model", dest="d_model", type=int)
    p.add_argument("--d-hidden", dest="d_hidden", type=int)
    p.add_argument("--patch-size", dest="patch_size", type=int)
    p.add_argument("--image-size", dest="image_size", type=int)
    p.add_argument("--s-max", dest="s_max", type=int)
    p.add_argument("--patience", type=int)


def _split_entries(entries, split: str):
    if split == "all":
        return entries
    chosen = [e for e in entries if e.split == split]
    if not chosen:
        raise InputError(f"no entries in split {split!r}")
    return chosen


def _pool_mode(flag: str) -> str:
    return {"gap": "gap", "attn": "attention"}[flag]


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    spec = dp.SynthSpec(family=args.family, classes=args.classes,
                        per_class=args.per_class, slices=args.slices,
                        height=args.size, width=args.size, kind=args.kind,
                        noise=args.noise)
    out = Path(args.out)
    entries = dp.synth_dataset(spec, args.seed, out)
    _write_run_config(out, "synth", None,
                      {"synth": {"family": spec.family, "classes": spec.classes,
                                 "per_class": spec.per_class, "slices": spec.slices,
                                 "size": spec.height, "kind": spec.kind,
                                 "noise": spec.noise, "seed": args.seed},
                       "samples": len(entries)})
    print(f"wrote {len(entries)} samples to {out}")
    return EXIT_OK


def _load_stage1(from_ckpt):
    if from_ckpt is None or not Path(from_ckpt).is_file():
        raise DependencyError(f"stage-1 checkpoint not found: {from_ckpt}; "
                              "run train2d first and pass it as --from")
    return tr.load_checkpoint(from_ckpt)


def _run_training(args, stage: int) -> int:
    cfg = _load_config(args)
    data_root = Path(args.data)
    entries = dp.load_manifest(data_root / "manifest.json")
    train = _split_entries(entries, "train")
    val = _split_entries(entries, "val")
    out = Path(args.out)
    if args.resume:  # refuse before run_config.json is written
        tr.resume_checkpoint(out, cfg, stage)

    if stage == 1:
        _write_run_config(out, "train2d", cfg, {"data": str(data_root)})
        best = tr.train_stage1(cfg, train, val, data_root, out_dir=out, resume=args.resume)
        label = "stage1"
    else:
        stage1 = None
        if not args.resume:  # a resume holds both encoders; --from is not read
            stage1 = _load_stage1(args.from_ckpt)
        _write_run_config(out, "train3d", cfg,
                          {"data": str(data_root), "from": args.from_ckpt})
        best = tr.train_stage2(cfg, train, val, data_root, stage1, out_dir=out,
                               resume=args.resume)
        label = "stage2"
    print(f"best epoch {best.best_epoch}: val loss {best.best_val_loss!r} "
          f"-> {out / (label + '.ckpt')}")
    return EXIT_OK


def _load_eval_inputs(args):
    ckpt = tr.load_checkpoint(args.ckpt)
    data_root = Path(args.data)
    entries = dp.load_manifest(data_root / "manifest.json")
    entries = _split_entries(entries, args.split)
    return ckpt, data_root, entries


def cmd_probe(args) -> int:
    ckpt, data_root, entries = _load_eval_inputs(args)
    table = ek.extract_embeddings(ckpt, entries, data_root, _pool_mode(args.pool))
    report = ek.linear_probe_cv(table, k=args.folds, seed=args.seed)
    out = Path(args.out)
    _write_run_config(out, "probe", ckpt.config,
                      {"data": str(data_root), "ckpt": str(args.ckpt),
                       "pool": args.pool, "split": args.split, "seed": args.seed,
                       "folds": args.folds})
    _write_report(out, "probe_report", report)
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_match(args) -> int:
    ckpt, data_root, entries = _load_eval_inputs(args)
    captions = dp.load_captions(args.captions)
    table = ek.extract_embeddings(ckpt, entries, data_root, _pool_mode(args.pool))
    report = ek.top1_match(table, captions, ckpt.text)
    out = Path(args.out)
    _write_run_config(out, "match", ckpt.config,
                      {"data": str(data_root), "ckpt": str(args.ckpt),
                       "captions": str(args.captions), "pool": args.pool,
                       "split": args.split})
    _write_report(out, "match_report", report)
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    data = Path(args.data)
    dir2d = data / "2d"
    dir3d = data / "3d"
    if not (dir3d / "manifest.json").is_file():
        raise DependencyError(f"no 3D corpus at {dir3d}; run synth first")
    entries3d = dp.load_manifest(dir3d / "manifest.json")
    captions = dp.load_captions(dir3d / "captions.json")
    entries2d = root2d = None
    if (dir2d / "manifest.json").is_file():
        entries2d = dp.load_manifest(dir2d / "manifest.json")
        root2d = dir2d
    stage1 = _load_stage1(args.from_ckpt) if args.from_ckpt else None

    out = Path(args.out)
    _write_run_config(out, "ablate", cfg, {"data": str(data), "from": args.from_ckpt})
    abl = ek.AblationData(root2d=root2d, entries2d=entries2d, root3d=dir3d,
                          entries3d=entries3d, captions3d=captions)
    report = ek.run_ablation(abl, cfg, workdir=out / "work", stage1_ckpt=stage1)
    _write_report(out, "ablation_report", report)
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_export(args) -> int:
    ckpt, data_root, entries = _load_eval_inputs(args)
    table = ek.extract_embeddings(ckpt, entries, data_root, _pool_mode(args.pool))
    out = Path(args.out)
    _write_run_config(out, "export", ckpt.config,
                      {"data": str(data_root), "ckpt": str(args.ckpt),
                       "pool": args.pool, "split": args.split})
    ek.export_embeddings_csv(table, out / "embeddings.csv")
    print(f"wrote {len(table)} embeddings of dim {table.dim} to {out / 'embeddings.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volalign",
        description="Desk-scale contrastive image-text alignment with slice pooling.")
    parser.add_argument("--version", action="version", version=f"volalign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--family", required=True, choices=["pattern", "order-coded"])
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--per-class", dest="per_class", type=int, default=200)
    p.add_argument("--slices", type=int, default=8)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--kind", choices=["2d", "3d"], default="3d")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train2d", help="stage 1: fine-tune the 2D image encoder")
    _add_config_flags(p)
    p.add_argument("--data", required=True, help="corpus directory (manifest.json)")
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true", help=RESUME_HELP)
    p.set_defaults(func=partial(_run_training, stage=1))

    p = sub.add_parser("train3d", help="stage 2: train the slice pooling adapter")
    _add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--from", dest="from_ckpt",
                   help="stage-1 checkpoint to start from (required unless resuming)")
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true", help=RESUME_HELP)
    p.set_defaults(func=partial(_run_training, stage=2))

    p = sub.add_parser("probe", help="linear probe with k-fold cross-validation")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pool", choices=["gap", "attn"], default="attn")
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("match", help="top-1 image-text matching")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--captions", required=True, help="captions.json with one caption per class")
    p.add_argument("--pool", choices=["gap", "attn"], default="attn")
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("ablate", help="run the four-configuration ablation")
    _add_config_flags(p)
    p.add_argument("--data", required=True,
                   help="directory with 2d/ and 3d/ corpus subdirectories")
    p.add_argument("--from", dest="from_ckpt",
                   help="optional pre-trained stage-1 checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export", help="export embeddings as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pool", choices=["gap", "attn"], default="attn")
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VolalignError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error:internal: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
