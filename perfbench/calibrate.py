"""Machine-speed calibration against a frozen copy of csrt.

The machine this benchmark runs on is shared, and its speed drifts with
other load by up to 1.6x within minutes, on CPU time as much as on wall
time. An end-to-end run therefore times small fixed pieces of the same
kind of work, done by the frozen copy of csrt in csrt_frozen/, between the
operations it measures: a *reference* per kind of work (set-up, a
pre-training step, a fine-tuning step, a greedy or a beam-10 decode),
ticked once every few operations. Every measured time is scaled by

    REF_NOMINAL_S[workload][kind] / median of the ticks up to WINDOW on each side of it

so a figure reads as the CPU time the work would take on a machine where
the frozen reference takes its nominal time. A change to src/csrt moves
the measured work and not the reference, which is frozen.

A reference built from the program's own code tracks the drift far better
than a synthetic loop, and a local window better than a whole pass. Over
90 s of beam-10 decoding with other load started and stopped beside it,
the 200-utterance pass time ranged over 0.19 of its median raw, 0.16
scaled by a synthetic numpy loop and 0.036 by the frozen decoder, each
over the whole pass. In a noisier 150 s stretch (raw range 0.57) the
frozen decoder left 0.25 scaled over the whole pass, and 0.09 scaled over
a window of two ticks on each side.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

# Ticks on each side of a measured time whose median scales it.
WINDOW = 2

# Round figures near the median reference CPU times, in seconds, on a
# 2-CPU Xeon VM (Python 3.11.7, numpy 2.4.6, one BLAS thread). They only
# set the machine speed the calibrated figures are expressed at.
REF_NOMINAL_S = {
    "finetune-short": {"setup": 0.30, "pretrain": 0.0035, "finetune": 0.010},
    "finetune-long": {"setup": 0.45, "pretrain": 0.008, "finetune": 0.035},
    "decode-cs": {"setup": 0.40, "greedy": 0.006, "beam": 0.035},
}


class Calibrator:
    """Runs the references on demand and keeps their CPU times per kind.

    Enabled, its clock is process CPU time, so that time the process spends
    descheduled counts neither in the work nor in the reference. Disabled
    (traced runs), it never ticks, its clock is wall time and it scales
    nothing.
    """

    def __init__(self, workload, enabled=True):
        self.enabled = enabled
        self.clock = time.process_time if enabled else time.perf_counter
        self.nominal = REF_NOMINAL_S[workload]
        self.refs = {}  # kind -> callable doing one fixed piece of frozen work
        self.ticks = {kind: [] for kind in self.nominal}

    def tick(self, kind):
        """Run the reference of `kind` once; returns the seconds it took."""
        if not self.enabled:
            return 0.0
        start = self.clock()
        self.refs[kind]()
        spent = self.clock() - start
        self.ticks[kind].append(spent)
        return spent

    def last(self, kind):
        """Index of the latest tick of `kind`."""
        return len(self.ticks[kind]) - 1

    def scale(self, kind, index, seconds):
        """Scale seconds measured next to tick `index` of `kind` to the nominal speed.

        Call it once the ticks after `index` are taken too.
        """
        near = self.ticks[kind][max(0, index - WINDOW):max(0, index + WINDOW + 1)]
        if not near:
            return seconds
        return seconds * self.nominal[kind] / statistics.median(near)

    def marks(self):
        return {kind: len(t) for kind, t in self.ticks.items()}

    def ref_ms(self, marks=None):
        """Median reference time in ms per kind ticked since `marks` (default: ever)."""
        since = marks or {}
        return {
            kind: round(statistics.median(t[since.get(kind, 0):]) * 1000.0, 4)
            for kind, t in self.ticks.items() if t[since.get(kind, 0):]
        }


class _Setups:
    """Repeats a frozen set-up in fresh directories, keeping only the last."""

    def __init__(self, work_dir, build):
        self.work_dir = Path(work_dir)
        self.build = build
        self.n = 0

    def __call__(self):
        out = self.work_dir / f"ref-setup{self.n}"
        self.build(out)
        if self.n:
            shutil.rmtree(self.work_dir / f"ref-setup{self.n - 1}", ignore_errors=True)
        self.n += 1


def training_refs(cal, spec, work_dir):
    """References of a training workload: its set-up and one short step of each phase.

    They use the workload's corpus pool, which is the same for every seed.
    """
    from csrt_frozen import autodiff as ad
    from csrt_frozen import config, data, model, training

    values = config.defaults()
    state = {}

    def build(out):
        data.gen_corpus(data.CorpusSpec(seed=0, **spec), out / "corpus")
        corpus = data.load_corpus(out / "corpus")
        dim = corpus.split("train-cs")[0].features.shape[1]
        arch = training.arch_for(values["variant"], values, corpus.vocab, dim)
        state.update(corpus=corpus, model=model.Model(arch, seed=0))

    def step(losses):
        # Forward and backward of a 2-utterance batch; the optimizer is left
        # out so that the reference model never changes.
        tape = ad.Tape()
        bound = state["model"].bind(tape)
        total = None
        for loss_fn in losses:
            loss = loss_fn(bound)
            total = loss if total is None else ad.add(total, loss)
        ad.backward(ad.mul(total, 1.0 / len(losses)))

    def pretrain():
        c, m = state["corpus"], state["model"]
        step([
            lambda b, lang=lang: training._pretrain_loss(
                m, b, c.vocab, c.split(f"train-mono-{lang.lower()}")[0], lang)
            for lang in ("M", "E")
        ])

    def finetune():
        c, m = state["corpus"], state["model"]
        cfg = training.TrainingConfig.from_values(values)
        step([
            lambda b, u=u: training._finetune_loss(m, b, c.vocab, u, cfg)[0]
            for u in c.split("train-cs")[:2]
        ])

    cal.refs.update(setup=_Setups(work_dir, build), pretrain=pretrain, finetune=finetune)


def decode_refs(cal, spec, model_path, work_dir):
    """References of decode-cs: its set-up, and greedy and beam-10 decodes of fixed utterances."""
    from csrt_frozen import data, decoding, model

    state = {}

    def build(out):
        data.gen_corpus(data.CorpusSpec(**spec), out / "corpus")
        pool = data.load_corpus(out / "corpus").split("test-cs")
        ck = model.load_checkpoint(model_path)
        state.update(pool=pool, model=model.Model(ck.architecture(), params=ck.model_params()))

    def greedy():
        for utt in state["pool"][:2]:
            decoding.rnnt_decode(state["model"], utt.features, beam=1)

    def beam():
        decoding.rnnt_decode(state["model"], state["pool"][0].features, beam=10)

    cal.refs.update(setup=_Setups(work_dir, build), greedy=greedy, beam=beam)
