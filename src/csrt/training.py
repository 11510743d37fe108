"""Two-stage training: monolingual CTC pre-training, then transducer or
language-separation fine-tuning on a seeded mixture of code-switched and
monolingual batches.

Everything stochastic comes from (seed, phase tag, epoch), never ambient
RNG state, so a fixed seed gives bit-identical checkpoints. A run stops
only at the end of its last epoch, and resuming it for more epochs
continues step-for-step, through a checkpoint file too: the state is
(epoch, step) plus the Adam moments, flat vectors in the model's
`_param_layout` order.
Both stages check the start checkpoint and every CTC target before their
first log line. Only conditional-ls, whose loss reads them, runs the CTC
heads in fine-tuning.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import config
from .alignments import mask_labels, min_ctc_length
from .errors import ConfigError, CsrtError, FingerprintMismatchError, OptimizerError
from .losses import ctc_loss, ls_loss, rnnt_loss
from .model import (Architecture, Checkpoint, Model, ParamViews, flat_params, param_count,
                    variant_family)

_PHASES = ("pretrain", "finetune")


@config.settings
class TrainingConfig:
    lam: float
    learning_rate: float
    warmup_steps: int
    epochs: int
    batch_size: int
    seed: int
    variant: str
    mono_mix_ratio: float
    beta1: float
    beta2: float
    moment_eps: float
    grad_clip: float


def arch_for(variant, values, vocab, input_dim):
    """Architecture for a variant, with vanilla's encoder width at dual-model parameter parity."""
    arch = config.from_values(Architecture, values, family=variant_family(variant),
                              input_dim=input_dim, n_m=vocab.n_m, n_e=vocab.n_e)
    if arch.family != "single":
        return arch

    def pair(width):  # rises strictly with the width, as each count does
        return param_count(arch, width) + param_count(arch, width + 1)

    # Vanilla's width is the one whose count is nearest the dual model's, the smaller on a tie:
    # the first whose pair reaches twice that target, as below it the next width is nearer.
    # A count is at least the width squared (a w_ff block), so that width lies in this range;
    # it is searched past the hidden-dim bound, which the result alone must meet.
    target = param_count(replace(arch, family="dual"))
    widths = range(1, math.isqrt(target) + 2)
    width = widths[bisect.bisect_left(widths, 2 * target, key=pair)]
    try:
        return replace(arch, hidden_dim=width)
    except ConfigError as exc:
        raise ConfigError(f"hidden-dim {arch.hidden_dim} gives vanilla the parameter-parity "
                          f"width {width}: {exc}") from None


@dataclass
class TrainState:
    step: int = 0
    epoch: int = 0
    # Flat moments over the blocks in _param_layout order; None until a step or a resume.
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def schedule_lr(config, step):
    """Learning rate at 1-based optimizer step: constant at warmup-steps 0, else a linear
    warmup over warmup-steps W that peaks at step W and decays as 1/sqrt(step) after it."""
    w = config.warmup_steps
    if not w:
        return config.learning_rate
    return config.learning_rate * min(step / w, np.sqrt(w / step))


def optimizer_step(model, grad, state, config):
    """One in-place update of `model.vec` by its gradient vector; returns (grad norm, clipped).

    Plain gradient descent, optionally smoothed by first/second moments
    (bias-corrected), over the whole vector at once. Gradients are clipped to a global
    norm first; any non-finite gradient aborts, naming its block. The returned
    norm is the global norm before clipping, and `clipped` whether it was scaled.
    """
    if not np.isfinite(grad).all():
        bad = next(name for name, g in ParamViews(model.arch, grad).items()
                   if not np.isfinite(g).all())
        raise OptimizerError(f"non-finite gradient in parameter block {bad!r}")
    sq = ParamViews(model.arch, grad * grad)  # summed block by block: per-block norms' bits
    norm = float(np.sqrt(sum(float(block.sum()) for block in sq.values())))
    clipped = 0 < config.grad_clip < norm
    g = grad * (config.grad_clip / norm) if clipped else grad
    state.step += 1
    update = g
    if config.beta1 > 0:
        m = np.zeros(g.size) if state.m is None else state.m
        state.m = config.beta1 * m + (1.0 - config.beta1) * g
        update = state.m / (1.0 - config.beta1**state.step)
    if config.beta2 > 0:
        v = np.zeros(g.size) if state.v is None else state.v
        state.v = config.beta2 * v + ((1.0 - config.beta2) * g) * g
        update = update / (np.sqrt(state.v / (1.0 - config.beta2**state.step)) + config.moment_eps)
    model.vec -= update * schedule_lr(config, state.step)
    return norm, clipped


def _epoch_rng(seed, tag, epoch):
    return np.random.default_rng(np.random.SeedSequence([seed, tag, epoch]))


def _chunks(indices, size):
    return [indices[i : i + size] for i in range(0, len(indices), size)]


def _local_labels(vocab, labels, lang):
    return tuple(vocab.to_local(lang, u) for u in labels)


def _check_monolingual(items, vocab, masked=False):
    """Check each (lang, utt) item's labels (`masked`: its `lang` ones) as a `lang` CTC target."""
    for lang, utt in items:
        labels = mask_labels(utt.labels, lang, vocab) if masked else utt.labels
        for u in labels:
            if vocab.lang_of(u) != lang:
                raise CsrtError(
                    f"corpus language violation: utterance {utt.uid} contains "
                    f"{vocab.lang_of(u)} unit {vocab.surface(u)} in the {lang} corpus"
                )
        if min_ctc_length(labels) > utt.n_frames:
            raise CsrtError(f"utterance {utt.uid}: its {len(labels)} {lang} labels need "
                            f"{min_ctc_length(labels)} CTC frames, it has {utt.n_frames}")


_STATE_KEYS = ("step", "epoch", "phase")  # state.<key> blocks: non-negative ints


def _finish_checkpoint(model, state, phase):
    blocks = dict(ParamViews(model.arch, model.vec.copy()))
    for key in ("m", "v"):
        if getattr(state, key) is not None:
            moment = ParamViews(model.arch, getattr(state, key).copy())
            blocks.update((f"opt.{key}.{name}", arr) for name, arr in moment.items())
    for k in _STATE_KEYS:  # all but phase are TrainState fields
        value = _PHASES.index(phase) if k == "phase" else getattr(state, k)
        blocks[f"state.{k}"] = np.array(float(value))
    return Checkpoint(fingerprint=model.arch.fingerprint(), blocks=blocks)


def _read_state(blocks, params, phase):
    """TrainState of a `phase` checkpoint's state.* and opt.* blocks, each moment kind absent
    or whole over `params`; CsrtError names the first bad block."""
    values = {}
    for k in _STATE_KEYS:
        arr = blocks.get(f"state.{k}")
        value = float(arr) if arr is not None and np.shape(arr) == () else -1.0
        if not (value >= 0 and value.is_integer()) or (k == "phase" and value >= len(_PHASES)):
            raise CsrtError(f"checkpoint block 'state.{k}' is missing or not a valid {k}")
        values[k] = int(value)
    if _PHASES[values.pop("phase")] != phase:
        raise CsrtError(f"checkpoint has no resumable {phase} state")
    batch = blocks.get("state.batch", 0.0)  # older checkpoints hold 0 here: saved at an epoch end
    if np.shape(batch) != () or float(batch) != 0:
        raise CsrtError("checkpoint block 'state.batch' is not 0 (a run resumes at an epoch end)")
    kept = {key: {name[6:]: arr for name, arr in blocks.items() if name.startswith(f"opt.{key}.")}
            for key in ("m", "v")}
    missing = [f"opt.{key}.{n}" for key, moment in kept.items() if moment
               for n in params if n not in moment]
    if missing:
        raise CsrtError(f"optimizer block {missing[0]!r} is missing: a kept moment needs "
                        "every parameter block")
    misfit = sorted(f"opt.{key}.{n}" for key, moment in kept.items() for n, arr in moment.items()
                    if n not in params or arr.shape != params[n].shape)
    if misfit:
        raise CsrtError(f"optimizer block {misfit[0]!r} does not fit a parameter block")
    flat = {key: flat_params(params.arch, moment) for key, moment in kept.items() if moment}
    return TrainState(**values, **flat)


def start_from(checkpoint, arch, phase, resume, seed=0):
    """Model and TrainState of a `phase` run: seeded by `seed` without a checkpoint, else
    from `checkpoint`, checked against `arch` (and, when resuming, for that phase's state)."""
    if checkpoint is None:
        return Model(arch, seed=seed), TrainState()
    if checkpoint.fingerprint != arch.fingerprint():
        raise FingerprintMismatchError(
            "checkpoint fingerprint does not match the configured variant/dimensions"
        )
    model = Model(arch, params=checkpoint.model_params())
    return model, _read_state(checkpoint.blocks, model.params, phase) if resume else TrainState()


def _pretrain_loss(model, bound, vocab, items):
    """Summed CTC loss of (lang, utt) items, packed on the encoders: one node over both heads."""
    logps = model.subnets(bound, [(lang, utt.features) for lang, utt in items])
    return ctc_loss(logps, [_local_labels(vocab, utt.labels, lang) for lang, utt in items])


def _finetune_loss(model, bound, vocab, utts, config):
    """Summed transducer or LS loss of utts, one node per loss term, and the term sums."""
    ls = config.variant == "conditional-ls"
    h_encs, heads = model.encode_fused(bound, [utt.features for utt in utts], heads=ls)
    lattices = [model.joint(bound, h_enc, model.predict(bound, utt.labels))
                for h_enc, utt in zip(h_encs, utts)]
    l_rnnt = rnnt_loss(lattices, [utt.labels for utt in utts])
    if not ls:
        return l_rnnt, {"rnnt": l_rnnt.item()}
    l_m, l_e = (
        ctc_loss(logps,
                 [_local_labels(vocab, mask_labels(utt.labels, lang, vocab), lang) for utt in utts])
        for logps, lang in zip(heads, "ME")
    )
    parts = {"rnnt": l_rnnt.item(), "ctc_m": l_m.item(), "ctc_e": l_e.item()}
    return ls_loss(l_rnnt, l_m, l_e, config.lam), parts


def _run_batch(model, items, loss_fn, state, config, log):
    start = time.perf_counter()
    bound, grad = model.bind(ad.Tape())
    total, sums = loss_fn(bound, items)  # sums: the loss terms its phase and variant have
    batch_loss = ad.mul(total, 1.0 / len(items))
    ad.backward(batch_loss)
    norm, clipped = optimizer_step(model, grad, state, config)
    if log is not None:
        step_ms = (time.perf_counter() - start) * 1e3
        comp = " ".join(f"{k}={sums[k] / len(items):.6f}" if k in sums else f"{k}=-"
                        for k in ("rnnt", "ctc_m", "ctc_e"))
        log(f"step={state.step} epoch={state.epoch} loss={batch_loss.item():.6f} {comp} "
            f"lr={schedule_lr(config, state.step):.6g} grad_norm={norm:.6g} "
            f"clipped={int(clipped)} step_ms={step_ms:.3f}")


def pretrain(corpus_m, corpus_e, config, arch, dev_m=(), dev_e=(), *, vocab, log=None,
             resume_from=None):
    """CTC pre-training of the monolingual encoders and heads.

    The decoder and joint network stay at their seeded initialization: the
    CTC losses never touch them. Returns a Checkpoint.
    """
    if not arch.has_ctc_heads:
        raise CsrtError("the single-encoder variant has no CTC heads to pre-train; "
                        "fine-tune it from its seed (finetune without --init)")
    if not (corpus_m and corpus_e):
        raise CsrtError("pretrain requires training utterances in both languages")
    items = [("M", u) for u in corpus_m] + [("E", u) for u in corpus_e]
    dev_items = [("M", u) for u in dev_m] + [("E", u) for u in dev_e]
    _check_monolingual(items + dev_items, vocab)

    model, state = start_from(resume_from, arch, "pretrain", resume=True, seed=config.seed)

    def loss_fn(bound, batch):
        return _pretrain_loss(model, bound, vocab, batch), {}

    def schedule(epoch):
        perm = _epoch_rng(config.seed, 11, epoch).permutation(len(items)).tolist()
        return _chunks([items[i] for i in perm], config.batch_size)

    return _train_loop(model, state, config, schedule, dev_items, loss_fn, "pretrain", log)


def finetune(corpora, init, config, arch, dev=(), *, vocab, log=None, resume=False):
    """Fine-tune all parameters with the transducer or LS loss.

    `corpora` maps {'cs': [...], 'mono-m': [...], 'mono-e': [...]}; at a
    mono-mix-ratio of 0 the monolingual entries are left out: they form no
    batch and do not count in the epoch length.
    `init` is the pre-training Checkpoint (fingerprint-checked), a finetune
    checkpoint to run on for more epochs when `resume` is set, or None to
    start from the seeded initialization, as pretrain does.
    """
    model, state = start_from(init, arch, "finetune", resume, seed=config.seed)

    parts = ("cs", "mono-m", "mono-e") if config.mono_mix_ratio > 0 else ("cs",)
    sources = {k: list(corpora[k]) for k in parts if corpora.get(k)}
    if "cs" not in sources:
        raise CsrtError("finetune requires code-switched training data")
    if config.variant == "conditional-ls":
        utts = [u for v in sources.values() for u in v] + list(dev)
        _check_monolingual([(lang, u) for u in utts for lang in "ME"], vocab, masked=True)

    def loss_fn(bound, batch):
        return _finetune_loss(model, bound, vocab, batch, config)

    def schedule(epoch):  # each source cycles through its own permutation of the epoch
        rng = _epoch_rng(config.seed, 13, epoch)
        draws = {k: itertools.cycle([v[i] for i in rng.permutation(len(v)).tolist()])
                 for k, v in sources.items()}
        mono = [k for k in sources if k != "cs"]
        n_batches = max(1, sum(len(v) for v in sources.values()) // config.batch_size)
        batches = []
        for _ in range(n_batches):
            src = "cs"
            if mono and rng.random() < config.mono_mix_ratio:
                src = mono[int(rng.integers(len(mono)))]
            size = min(config.batch_size, len(sources[src]))
            batches.append(list(itertools.islice(draws[src], size)))
        return batches

    return _train_loop(model, state, config, schedule, list(dev), loss_fn, "finetune", log)


def _train_loop(model, state, config, schedule, dev_items, loss_fn, phase, log):
    val_losses = []

    def validate():  # mean dev loss over tape-free batches, logged with the best so far
        start = time.perf_counter()
        val_losses.append(sum(loss_fn(model.params, b)[0].item()
                              for b in _chunks(dev_items, config.batch_size)) / len(dev_items))
        if log is not None:
            log(f"epoch={state.epoch} val_loss={val_losses[-1]:.6f} best={min(val_losses):.6f} "
                f"val_s={time.perf_counter() - start:.3f}")

    if dev_items:
        validate()
    for epoch in range(state.epoch, config.epochs):
        for batch in schedule(epoch):
            _run_batch(model, batch, loss_fn, state, config, log)
        state.epoch = epoch + 1
        if dev_items:
            validate()
    return _finish_checkpoint(model, state, phase)
