"""volalign: desk-scale contrastive image-text alignment for 2D images and
slice stacks, with an attention-based slice pooling adapter and a full
evaluation protocol (linear probing, top-1 matching, ablations)."""

__version__ = "0.1.0"

from .config import TrainConfig
from .contrastive import batch_loss, info_nce, similarity_matrix
from .datapipe import (ManifestEntry, SynthSpec, build_caption, load_captions,
                       load_manifest, load_preprocessed, load_volume, preprocess_volume,
                       preprocessed_batches, resize_bilinear, save_manifest, save_volume,
                       synth_dataset, tokenize, zscore)
from .diffmath import Param, ParamGroup, Tape, grad_check, make_rng
from .encoders import (encode_frozen, encode_image2d, encode_samples, encode_text,
                       image_shapes, text_shapes)
from .evalkit import (AblationData, AblationReport, EmbeddingRow, EmbeddingTable,
                      MatchReport, ProbeReport, export_embeddings_csv,
                      extract_embeddings, linear_probe_cv, read_embeddings_csv,
                      run_ablation, top1_match)
from .slice_pool import adapter_shapes, attention_pool, gap_pool
from .trainer import (GROUPS, Adam, Checkpoint, cosine_lr, init_group,
                      load_checkpoint, make_initial_checkpoint, save_checkpoint,
                      train_stage1, train_stage2)
