"""Randomized self-check sweeps shared by the CLI and the test suite:
oracle-equivalence sweeps for both lattice losses and gradient checks up
to the full dual-encoder forward pass.
"""

from __future__ import annotations

import numpy as np

from .alignments import Vocabulary, min_ctc_length
from .autodiff import grad_check, log_softmax
from .data import Utterance
from .losses import ctc_loss, ctc_loss_oracle, rnnt_loss, rnnt_loss_oracle
from .model import Architecture, Model
from .training import TrainingConfig, _finetune_loss


def random_log_dist(rng, shape):
    logits = rng.standard_normal(shape)
    m = logits.max(axis=-1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def random_ctc_instance(rng, max_t=6, max_l=3, max_v=4):
    """Feasible (logp, y) pair with T, L, |V| within the oracle caps."""
    while True:
        T = int(rng.integers(1, max_t + 1))
        V = int(rng.integers(1, max_v + 1))
        L = int(rng.integers(0, max_l + 1))
        y = tuple(int(rng.integers(1, V + 1)) for _ in range(L))
        if min_ctc_length(y) <= T:
            return random_log_dist(rng, (T, V + 1)), y


def random_rnnt_instance(rng, max_t=6, max_l=3, max_v=4):
    T = int(rng.integers(1, max_t + 1))
    V = int(rng.integers(1, max_v + 1))
    L = int(rng.integers(0, max_l + 1))
    y = tuple(int(rng.integers(1, V + 1)) for _ in range(L))
    return random_log_dist(rng, (T, L + 1, V + 1)), y


def oracle_sweep(trials=200, seed=1234, max_t=6, max_l=3, max_v=4):
    """Max |dp loss - enumeration loss| over random instances, per loss."""
    rng = np.random.default_rng(seed)
    worst = {"ctc": 0.0, "rnnt": 0.0}
    for _ in range(trials):
        lp, y = random_ctc_instance(rng, max_t, max_l, max_v)
        diff = abs(ctc_loss(lp, y).item() - ctc_loss_oracle(lp, y))
        worst["ctc"] = max(worst["ctc"], diff)
        lp, y = random_rnnt_instance(rng, max_t, max_l, max_v)
        diff = abs(rnnt_loss(lp, y).item() - rnnt_loss_oracle(lp, y))
        worst["rnnt"] = max(worst["rnnt"], diff)
    return worst


def loss_grad_sweep(trials=20, seed=99):
    """Max grad_check error for each loss, differentiating through log-softmax."""
    rng = np.random.default_rng(seed)
    worst = {"ctc": 0.0, "rnnt": 0.0}
    for _ in range(trials):
        lp, y = random_ctc_instance(rng, max_t=4, max_l=2, max_v=3)

        def f_ctc(leaves):
            return ctc_loss(log_softmax(leaves[0], axis=-1), y)

        worst["ctc"] = max(worst["ctc"], grad_check(f_ctc, [rng.standard_normal(lp.shape)]))
        lp, y = random_rnnt_instance(rng, max_t=3, max_l=2, max_v=3)

        def f_rnnt(leaves):
            return rnnt_loss(log_softmax(leaves[0], axis=-1), y)

        worst["rnnt"] = max(worst["rnnt"], grad_check(f_rnnt, [rng.standard_normal(lp.shape)]))
    return worst


def tiny_setup(mixing="conv"):
    """A minimal dual-encoder model plus one mixed utterance, for grad checks."""
    vocab = Vocabulary(m_surfaces=("m1", "m2"), e_surfaces=("e1", "e2"))
    arch = Architecture(
        family="dual",
        input_dim=3,
        hidden_dim=4,
        encoder_layers=1,
        encoder_mixing=mixing,
        embed_dim=3,
        decoder_dim=4,
        joint_dim=4,
        n_m=vocab.n_m,
        n_e=vocab.n_e,
    )
    model = Model(arch, seed=7)
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 3))
    y = (1, 3)  # one M unit, one E unit
    return model, vocab, x, y


def full_model_grad_check(lam=0.5, mixing="conv", epsilon=1e-5):
    """grad_check through the whole dual-encoder forward plus the LS loss."""
    model, vocab, x, y = tiny_setup(mixing)
    names = sorted(model.params)
    utt = Utterance("grad-check", x, y)
    cfg = TrainingConfig(lam=lam)

    def f(leaves):
        return _finetune_loss(model, dict(zip(names, leaves)), vocab, utt, cfg)[0]

    return grad_check(f, [model.params[n] for n in names], epsilon=epsilon)
