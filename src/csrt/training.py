"""Two-stage training: monolingual CTC pre-training, then transducer or
language-separation fine-tuning on a seeded mixture of code-switched and
monolingual batches.

Everything stochastic is derived from (seed, phase tag, epoch), never from
ambient RNG state, so a fixed seed yields bit-identical checkpoints and a
run saved mid-epoch resumes step-for-step: the saved state is just
(epoch, batch index, step count) plus optimizer moments, and the epoch's
batch schedule is regenerated from its seed on resume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import config
from .alignments import mask_labels
from .errors import CsrtError, FingerprintMismatchError, OptimizerError
from .losses import ctc_loss, ls_loss, rnnt_loss
from .model import Architecture, Checkpoint, Model, variant_family

_PHASES = ("pretrain", "finetune")


@dataclass(frozen=True)
class TrainingConfig:
    lam: float = 0.5
    learning_rate: float = 0.004
    schedule: str = "constant"
    warmup_steps: int = 200
    epochs: int = 12
    batch_size: int = 8
    seed: int = 0
    variant: str = "conditional-ls"
    fine_tune_data: str = "cs+mono"
    mono_mix_ratio: float = 2.0 / 3.0
    beta1: float = 0.9
    beta2: float = 0.999
    moment_eps: float = 1e-8
    grad_clip: float = 5.0

    from_values = classmethod(config.from_values)

    def __post_init__(self):
        config.check_fields(self)


def arch_for(variant, values, vocab, input_dim):
    """Architecture for a variant; vanilla gets its own (wider) encoder width."""
    hidden = values["vanilla-hidden-dim"] if variant == "vanilla" else values["hidden-dim"]
    return config.from_values(Architecture, values, family=variant_family(variant),
                              input_dim=input_dim, hidden_dim=hidden, n_m=vocab.n_m, n_e=vocab.n_e)


@dataclass
class TrainState:
    step: int = 0
    epoch: int = 0
    batch: int = 0
    m: dict = field(default_factory=dict)  # per-block moments; after a step, views of
    v: dict = field(default_factory=dict)  # the flat vectors flat["m"] and flat["v"]
    flat: dict = field(default_factory=dict, repr=False)


def schedule_lr(config, step):
    """Learning rate at 1-based optimizer step."""
    if config.schedule == "constant":
        return config.learning_rate
    w = config.warmup_steps
    return config.learning_rate * min(step / w, np.sqrt(w / step))


def optimizer_step(params, grads, state, config):
    """One in-place update of every parameter block; returns (grad norm, clipped).

    Plain gradient descent, optionally smoothed by first/second moments
    (bias-corrected), over all blocks at once. Gradients are clipped to a global
    norm first; any non-finite gradient aborts, naming the block. The returned
    norm is the global norm before clipping, and `clipped` whether it was scaled.
    """
    g = np.concatenate([grads[name].ravel() for name in params])
    if not np.isfinite(g).all():
        bad = next(name for name in params if not np.isfinite(grads[name]).all())
        raise OptimizerError(f"non-finite gradient in parameter block {bad!r}")
    bounds = np.cumsum([0] + [arr.size for arr in params.values()]).tolist()
    for key, beta in (("m", config.beta1), ("v", config.beta2)):
        if beta > 0 and key not in state.flat:  # first step: blocks become views of one vector
            blocks = getattr(state, key)
            flat = state.flat[key] = np.concatenate([blocks.get(n, np.zeros(a.size)).ravel()
                                                     for n, a in params.items()])
            for (n, a), lo, hi in zip(params.items(), bounds, bounds[1:]):
                blocks[n] = flat[lo:hi].reshape(a.shape)
    sq = g * g  # the norm sums block by block, as per-block arrays would
    norm = float(np.sqrt(sum(float(sq[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:]))))
    clipped = 0 < config.grad_clip < norm
    g *= config.grad_clip / norm if clipped else 1.0
    state.step += 1
    # From here sq is a spare buffer, and g turns into the update once the moments used it;
    # each in-place op is an op of the block-by-block update, so the bits stay the same.
    if config.beta1 > 0:
        m = state.flat["m"]
        m *= config.beta1
        m += np.multiply(1.0 - config.beta1, g, out=sq)
    if config.beta2 > 0:
        v = state.flat["v"]
        v *= config.beta2
        v += np.multiply(np.multiply(1.0 - config.beta2, g, out=sq), g, out=sq)
    update = g
    if config.beta1 > 0:
        np.divide(m, 1.0 - config.beta1**state.step, out=update)
    if config.beta2 > 0:
        vhat = np.divide(v, 1.0 - config.beta2**state.step, out=sq)
        update /= np.add(np.sqrt(vhat, out=vhat), config.moment_eps, out=vhat)
    update *= schedule_lr(config, state.step)
    for arr, lo, hi in zip(params.values(), bounds, bounds[1:]):
        arr -= update[lo:hi].reshape(arr.shape)
    return norm, clipped


def _epoch_rng(seed, tag, epoch):
    return np.random.default_rng(np.random.SeedSequence([seed, tag, epoch]))


def _chunks(indices, size):
    return [indices[i : i + size] for i in range(0, len(indices), size)]


def _local_labels(vocab, labels, lang):
    return tuple(vocab.to_local(lang, u) for u in labels)


def _check_monolingual(utts, lang, vocab):
    for utt in utts:
        for u in utt.labels:
            if vocab.lang_of(u) != lang:
                raise CsrtError(
                    f"corpus language violation: utterance {utt.uid} contains "
                    f"{vocab.lang_of(u)} unit {vocab.surface(u)} in the {lang} corpus"
                )


def _finish_checkpoint(model, state, phase):
    blocks = {k: v.copy() for k, v in model.params.items()}
    for key in ("m", "v"):  # copies: the moments are views of the optimizer's flat vectors
        blocks.update({f"opt.{key}.{k}": arr.copy() for k, arr in getattr(state, key).items()})
    for k in ("step", "epoch", "batch"):
        blocks[f"state.{k}"] = np.array(float(getattr(state, k)))
    blocks["state.phase"] = np.array(float(_PHASES.index(phase)))
    return Checkpoint(fingerprint=model.arch.fingerprint(), blocks=blocks)


def start_from(checkpoint, arch, phase, resume):
    """Model and TrainState of a `phase` run from `checkpoint`, checked against `arch`
    (and, when resuming, for that phase's state); the CLI calls it before writing."""
    if checkpoint.fingerprint != arch.fingerprint():
        raise FingerprintMismatchError(
            "checkpoint fingerprint does not match the configured variant/dimensions"
        )
    model = Model(arch, params=checkpoint.model_params())
    if not resume:
        return model, TrainState()
    blocks = checkpoint.blocks
    if "state.phase" not in blocks or _PHASES[int(blocks["state.phase"])] != phase:
        raise CsrtError(f"checkpoint has no resumable {phase} state")
    state = TrainState(**{k: int(blocks[f"state.{k}"]) for k in ("step", "epoch", "batch")})
    for name, arr in blocks.items():
        if name.startswith(("opt.m.", "opt.v.")):
            if name[6:] not in model.params or arr.shape != model.params[name[6:]].shape:
                raise CsrtError(f"optimizer block {name!r} does not fit a parameter block")
            (state.m if name[4] == "m" else state.v)[name[6:]] = arr.copy()
    return model, state


def _pretrain_loss(model, bound, vocab, items):
    """Summed CTC loss of (lang, utt) items: one node over both languages' heads."""
    logps = [model.subnet(bound, utt.features, lang) for lang, utt in items]
    return ctc_loss(logps, [_local_labels(vocab, utt.labels, lang) for lang, utt in items])


def _finetune_loss(model, bound, vocab, utts, config):
    """Summed transducer or LS loss of utts, one node per loss term, and the term sums."""
    outs = [model.forward(bound, utt.features, utt.labels) for utt in utts]
    l_rnnt = rnnt_loss([out["rnnt"] for out in outs], [utt.labels for utt in utts])
    if config.variant != "conditional-ls":
        return l_rnnt, {"rnnt": l_rnnt.item()}
    l_m, l_e = (
        ctc_loss([out[key] for out in outs],
                 [_local_labels(vocab, mask_labels(utt.labels, lang, vocab), lang) for utt in utts])
        for key, lang in (("ctc_m", "M"), ("ctc_e", "E"))
    )
    parts = {"rnnt": l_rnnt.item(), "ctc_m": l_m.item(), "ctc_e": l_e.item()}
    return ls_loss(l_rnnt, l_m, l_e, config.lam), parts


def _run_batch(model, items, loss_fn, state, config, log):
    start = time.perf_counter()
    bound = model.bind(ad.Tape())
    total, sums = loss_fn(bound, items)  # sums: the loss terms its phase and variant have
    batch_loss = ad.mul(total, 1.0 / len(items))
    ad.backward(batch_loss)
    grads = {name: bound[name].grad for name in model.params}
    norm, clipped = optimizer_step(model.params, grads, state, config)
    if log is not None:
        step_ms = (time.perf_counter() - start) * 1e3
        comp = " ".join(f"{k}={sums[k] / len(items):.6f}" if k in sums else f"{k}=-"
                        for k in ("rnnt", "ctc_m", "ctc_e"))
        log(f"step={state.step} epoch={state.epoch} loss={batch_loss.item():.6f} {comp} "
            f"lr={schedule_lr(config, state.step):.6g} grad_norm={norm:.6g} "
            f"clipped={int(clipped)} step_ms={step_ms:.3f}")
    return batch_loss.item()


def _validate(model, loss_fn, items, size):
    """Mean loss over items, run in batches of `size` without a tape."""
    if not items:
        return float("nan")
    bound = model.bind(None)
    return sum(loss_fn(bound, chunk)[0].item() for chunk in _chunks(items, size)) / len(items)


def pretrain(corpus_m, corpus_e, config, arch, dev_m=(), dev_e=(), vocab=None, log=None,
             stop_after_steps=None, resume_from=None):
    """CTC pre-training of the monolingual encoders and heads.

    The decoder and joint network stay at their seeded initialization: the
    CTC losses never touch them. Returns a Checkpoint.
    """
    if vocab is None:
        raise CsrtError("pretrain requires the corpus vocabulary")
    if not arch.has_ctc_heads:
        raise CsrtError("the single-encoder variant has no CTC heads to pre-train")
    _check_monolingual(corpus_m, "M", vocab)
    _check_monolingual(corpus_e, "E", vocab)

    if resume_from is None:
        model, state = Model(arch, seed=config.seed), TrainState()
    else:
        model, state = start_from(resume_from, arch, "pretrain", resume=True)

    items = [("M", u) for u in corpus_m] + [("E", u) for u in corpus_e]
    dev_items = [("M", u) for u in dev_m] + [("E", u) for u in dev_e]

    def loss_fn(bound, batch):
        return _pretrain_loss(model, bound, vocab, batch), {}

    def schedule(epoch):
        perm = _epoch_rng(config.seed, 11, epoch).permutation(len(items)).tolist()
        return _chunks([items[i] for i in perm], config.batch_size)

    return _train_loop(
        model, state, config, schedule, dev_items, loss_fn, "pretrain", log, stop_after_steps
    )


def finetune(corpora, init, config, arch, dev=(), vocab=None, log=None,
             stop_after_steps=None, resume=False):
    """Fine-tune all parameters with the transducer or LS loss.

    `corpora` maps {'cs': [...], 'mono-m': [...], 'mono-e': [...]}; the
    monolingual entries are used only when the config asks for cs+mono.
    `init` is the pre-training Checkpoint (fingerprint-checked), or a
    mid-run finetune checkpoint when `resume` is set.
    """
    if vocab is None:
        raise CsrtError("finetune requires the corpus vocabulary")
    model, state = start_from(init, arch, "finetune", resume)

    sources = {"cs": list(corpora.get("cs", ()))}
    if config.fine_tune_data == "cs+mono":
        for key in ("mono-m", "mono-e"):
            if corpora.get(key):
                sources[key] = list(corpora[key])
    if not sources["cs"]:
        raise CsrtError("finetune requires code-switched training data")

    def loss_fn(bound, batch):
        return _finetune_loss(model, bound, vocab, batch, config)

    def schedule(epoch):
        rng = _epoch_rng(config.seed, 13, epoch)
        perms = {k: rng.permutation(len(v)).tolist() for k, v in sources.items()}
        cursors = {k: 0 for k in perms}
        mono = [k for k in ("mono-m", "mono-e") if k in sources]
        total = sum(len(v) for v in sources.values())
        n_batches = max(1, total // config.batch_size)
        batches = []
        for _ in range(n_batches):
            if mono and rng.random() < config.mono_mix_ratio:
                src = mono[int(rng.integers(len(mono)))]
            else:
                src = "cs"
            picked = []
            for _ in range(min(config.batch_size, len(sources[src]))):
                picked.append(sources[src][perms[src][cursors[src] % len(perms[src])]])
                cursors[src] += 1
            batches.append(picked)
        return batches

    return _train_loop(
        model, state, config, schedule, list(dev), loss_fn, "finetune", log, stop_after_steps
    )


def _train_loop(model, state, config, schedule, dev_items, loss_fn, phase, log,
                stop_after_steps):
    def validate():  # mean dev loss, seconds taken
        start = time.perf_counter()
        return _validate(model, loss_fn, dev_items, config.batch_size), time.perf_counter() - start

    best, val_s = validate()
    if log is not None and dev_items:
        log(f"epoch={state.epoch} val_loss={best:.6f} best={best:.6f} val_s={val_s:.3f}")
    for epoch in range(state.epoch, config.epochs):
        state.epoch = epoch
        batches = schedule(epoch)
        start = state.batch
        state.batch = 0
        for bi, batch in enumerate(batches):
            if bi < start:
                continue
            _run_batch(model, batch, loss_fn, state, config, log)
            state.batch = bi + 1
            if stop_after_steps is not None and state.step >= stop_after_steps:
                return _finish_checkpoint(model, state, phase)
        state.batch = 0
        state.epoch = epoch + 1
        if dev_items:
            val, val_s = validate()
            best = min(best, val)
            if log is not None:
                log(f"epoch={epoch + 1} val_loss={val:.6f} best={best:.6f} val_s={val_s:.3f}")
    return _finish_checkpoint(model, state, phase)
