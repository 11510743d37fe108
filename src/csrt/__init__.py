"""Conditionally factorized bilingual speech recognition at desk scale:
a tensor/autodiff substrate, the bilingual alignment algebra, CTC and
transducer lattice losses with enumeration oracles, the encoder/decoder/
joint model zoo, two-stage training, decoding, and evaluation metrics,
all driven by one CLI over a synthetic two-language corpus.
"""

from .alignments import (
    BLANK,
    Vocabulary,
    collapse,
    compose,
    decompose,
    enumerate_ctc_alignments,
    enumerate_rnnt_paths,
    mask_labels,
)
from .autodiff import Tape, Tensor, backward, grad_check
from .data import CorpusSpec, Utterance, gen_corpus, load_corpus
from .decoding import greedy_ctc_decode, rnnt_decode
from .errors import CsrtError
from .losses import ctc_loss, ctc_loss_oracle, ls_loss, rnnt_loss, rnnt_loss_oracle
from .metrics import dump_frame_posteriors, error_stats, eval_language_separation, mixed_error_rate
from .model import Architecture, Checkpoint, Model, load_checkpoint, save_checkpoint
from .training import TrainingConfig, finetune, optimizer_step, pretrain

__version__ = "0.1.0"

__all__ = [
    "BLANK",
    "Architecture",
    "Checkpoint",
    "CorpusSpec",
    "CsrtError",
    "Model",
    "Tape",
    "Tensor",
    "TrainingConfig",
    "Utterance",
    "Vocabulary",
    "backward",
    "collapse",
    "compose",
    "ctc_loss",
    "ctc_loss_oracle",
    "decompose",
    "dump_frame_posteriors",
    "enumerate_ctc_alignments",
    "enumerate_rnnt_paths",
    "error_stats",
    "eval_language_separation",
    "finetune",
    "gen_corpus",
    "grad_check",
    "greedy_ctc_decode",
    "load_checkpoint",
    "load_corpus",
    "ls_loss",
    "mask_labels",
    "mixed_error_rate",
    "optimizer_step",
    "pretrain",
    "rnnt_decode",
    "rnnt_loss",
    "rnnt_loss_oracle",
    "save_checkpoint",
]
