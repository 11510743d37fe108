"""Randomized self-check sweeps shared by the CLI and the test suite:
oracle-equivalence sweeps for both lattice losses and gradient checks up
to the full dual-encoder forward pass.
"""

from __future__ import annotations

import numpy as np

from .alignments import Vocabulary, min_ctc_length
from .autodiff import grad_check, log_softmax, log_softmax_array
from .data import Utterance
from .losses import ctc_loss, ctc_loss_oracle, rnnt_loss, rnnt_loss_oracle
from .model import Architecture, Model
from .training import TrainingConfig, _finetune_loss


def random_log_dist(rng, shape):
    return log_softmax_array(rng.standard_normal(shape), axis=-1)


def _random_target(rng, max_t, max_l, max_v):
    """T, V and a label sequence over units 1..V, drawn in that order (L before y)."""
    T = int(rng.integers(1, max_t + 1))
    V = int(rng.integers(1, max_v + 1))
    L = int(rng.integers(0, max_l + 1))
    return T, V, tuple(int(rng.integers(1, V + 1)) for _ in range(L))


def random_ctc_instance(rng, max_t=6, max_l=3, max_v=4):
    """Feasible (logp, y) pair with T, L, |V| within the oracle caps."""
    while True:
        T, V, y = _random_target(rng, max_t, max_l, max_v)
        if min_ctc_length(y) <= T:
            return random_log_dist(rng, (T, V + 1)), y


def random_rnnt_instance(rng, max_t=6, max_l=3, max_v=4):
    T, V, y = _random_target(rng, max_t, max_l, max_v)
    return random_log_dist(rng, (T, len(y) + 1, V + 1)), y


def oracle_sweep(trials=200, seed=1234):
    """Max |dp loss - enumeration loss| over random instances, per loss."""
    rng = np.random.default_rng(seed)
    worst = {"ctc": 0.0, "rnnt": 0.0}
    cases = (("ctc", random_ctc_instance, ctc_loss, ctc_loss_oracle),
             ("rnnt", random_rnnt_instance, rnnt_loss, rnnt_loss_oracle))
    for _ in range(trials):
        for name, draw, loss, oracle in cases:
            lp, y = draw(rng)
            worst[name] = max(worst[name], abs(loss([lp], [y]).item() - oracle(lp, y)))
    return worst


def loss_grad_sweep(trials=20, seed=99):
    """Max grad_check error for each loss, differentiating through log-softmax."""
    rng = np.random.default_rng(seed)
    worst = {"ctc": 0.0, "rnnt": 0.0}
    for _ in range(trials):
        for name, draw, loss, max_t in (("ctc", random_ctc_instance, ctc_loss, 4),
                                        ("rnnt", random_rnnt_instance, rnnt_loss, 3)):
            lp, y = draw(rng, max_t=max_t, max_l=2, max_v=3)

            def f(leaves, loss=loss, y=y):
                return loss([log_softmax(leaves[0], axis=-1)], [y])

            worst[name] = max(worst[name], grad_check(f, [rng.standard_normal(lp.shape)]))
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


def full_model_grad_check(mixing="conv"):
    """grad_check through the whole dual-encoder forward plus the LS loss."""
    model, vocab, x, y = tiny_setup(mixing)
    arrays = model.params.roots()  # the encoder stacks and the other blocks, as `bind` has them
    names = sorted(arrays)
    utt = Utterance("grad-check", x, y)
    cfg = TrainingConfig()

    def f(leaves):
        return _finetune_loss(model, dict(zip(names, leaves)), vocab, [utt], cfg)[0]

    return grad_check(f, [arrays[n] for n in names])
