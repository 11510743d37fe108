"""Rebuild perfbench/decode_model.csrt, the fixed model the decode-cs workload decodes with.

The model is a 1-epoch CTC pre-training plus a 1-epoch conditional-ls
fine-tuning of the default variant on the default corpus spec at seed 0,
with every other setting at its default. Only the model parameters are
kept. Training is deterministic, so rerunning this script on the same code
reproduces the file byte for byte; the benchmark pins its SHA-256 (see
workloads.DECODE_MODEL_SHA256) so that later changes to training cannot
change the work decode-cs measures.

Run from the repository root:  python3 perfbench/make_decode_model.py
"""

import hashlib
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from csrt import config, training  # noqa: E402
from csrt.data import CorpusSpec, gen_corpus  # noqa: E402
from csrt.model import Checkpoint, save_checkpoint  # noqa: E402

OUT = Path(__file__).resolve().parent / "decode_model.csrt"


def main():
    work = ROOT / ".bench_work" / "make_decode_model"
    shutil.rmtree(work, ignore_errors=True)
    try:
        corpus = gen_corpus(CorpusSpec(seed=0), work / "corpus")
        values = config.defaults()
        values["epochs"] = 1
        tcfg = training.TrainingConfig.from_values(values)
        dim = corpus.split("train-cs")[0].features.shape[1]
        arch = training.arch_for(values["variant"], values, corpus.vocab, dim)
        pre = training.pretrain(
            corpus.split("train-mono-m"), corpus.split("train-mono-e"), tcfg, arch,
            dev_m=corpus.split("dev-mono-m"), dev_e=corpus.split("dev-mono-e"),
            vocab=corpus.vocab,
        )
        corpora = {
            "cs": corpus.split("train-cs"),
            "mono-m": corpus.split("train-mono-m"),
            "mono-e": corpus.split("train-mono-e"),
        }
        fine = training.finetune(
            corpora, pre, tcfg, arch, dev=corpus.split("dev-cs"), vocab=corpus.vocab
        )
        save_checkpoint(OUT, Checkpoint(fingerprint=fine.fingerprint, blocks=fine.model_params()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {OUT} sha256={hashlib.sha256(OUT.read_bytes()).hexdigest()}")


if __name__ == "__main__":
    main()
