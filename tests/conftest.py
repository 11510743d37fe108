import functools

import numpy as np
import pytest

from csrt import autodiff as ad
from csrt.alignments import Vocabulary, mask_labels
from csrt.data import CorpusSpec, gen_corpus
from csrt.losses import ctc_loss, ls_loss, rnnt_loss
from csrt.model import ParamViews, _ops, _recur
from csrt.training import _local_labels


@pytest.fixture(scope="session")
def vocab22():
    return Vocabulary(m_surfaces=("m1", "m2"), e_surfaces=("e1", "e2"))


@pytest.fixture(scope="session")
def vocab55():
    return Vocabulary(
        m_surfaces=tuple(f"m{i}" for i in range(1, 6)),
        e_surfaces=tuple(f"e{i}" for i in range(1, 6)),
    )


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small generated corpus shared by data/training/decoding tests."""
    spec = CorpusSpec(train_count=25, dev_count=6, test_count=8, seed=13)
    out = tmp_path_factory.mktemp("tiny-corpus")
    return spec, gen_corpus(spec, out), out


def edit_fields(path, index, edit):
    """Replace line `index` of a .tsv file by edit(its tab-separated fields)."""
    lines = path.read_text().splitlines()
    lines[index] = "\t".join(edit(lines[index].split("\t")))
    path.write_text("\n".join(lines) + "\n")


def random_log_rows(rng, t, v1):
    logits = rng.standard_normal((t, v1))
    m = logits.max(axis=1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def sum_all(x):
    """Sum of every entry of a Tensor as a 0-d Tensor, recorded as one custom node.

    The value is the row-times-ones product; the gradient broadcasts `g` back
    to x's shape as a read-only view, so a write into a borrowed gradient
    fails loudly.
    """
    x = ad.lift(x)
    n = x.data.size
    total = (x.data.reshape(1, n) @ np.ones((n, 1))).reshape(())
    return ad.record_custom(total, [x], lambda g: (np.broadcast_to(g, x.shape),))


def zero_fill_accumulate(self, g):
    """Tensor._accumulate as if every first gradient were a zero-filled copy."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def _zero_rows(y, dead):
    """y with the rows `dead` marks set to 0, and their gradient too: a test-side custom node."""
    if not isinstance(y, ad.Tensor):
        return np.where(dead[..., None], 0.0, y)
    return ad.record_custom(np.where(dead[..., None], 0.0, y.data), [y],
                            lambda g: (np.where(dead[..., None], 0.0, g),))


def reference_conv_layer(h, w_prev, w_cur, w_next, b_mix, w_ff, b_ff, dead=None):
    """model._conv_layer recorded op by op, as it was before it became one node; the `dead`
    rows are zeroed by one more node after it."""
    ops, T = _ops(b_ff), h.shape[-2]
    pad = ops.lift(np.zeros(h.shape[:-2] + (1, h.shape[-1])))
    padded = ops.concat([pad, h, pad])
    prev, nxt = ops.rows(padded, 0, T), ops.rows(padded, 2, T + 2)
    mix = ops.matmul(prev, w_prev)
    mix = ops.add(mix, ops.matmul(h, w_cur))
    mix = ops.add(mix, ops.matmul(nxt, w_next))
    mix = ops.tanh(ops.add(mix, b_mix))
    y = ops.tanh(ops.add(ops.matmul(mix, w_ff), b_ff))
    return y if dead is None else _zero_rows(y, dead)


def _block(model, bound, name):
    """Parameter block `name` from `bound`: its own entry (`params`, `per_block_bind`), or else
    a leaf over its slice of a stack among `bind`'s leaves that adds its gradient into the
    stack's in place, as `bind` once made one per encoder block."""
    enc, _, kind = name.partition(".")
    if name in bound or enc not in model.arch.encoder_names:  # `params` reads a stack by name
        return bound[name]
    stack, at = bound[f"encs.{kind}"], model.arch.encoder_names.index(enc)
    shape = model.params[name].shape
    leaf = ad.Tensor(stack.data[at].reshape(shape), tape=stack.tape)
    leaf.grad, leaf.owns_grad = stack.grad[at].reshape(shape), True
    return leaf


def reference_encode(model, bound, x, enc):
    """Model.encode recorded op by op over encoder `enc`'s blocks, or with `enc` "encs" over
    the stacks. Run per encoder (`reference_encode_fused`), it is the encoders as they ran
    before they were stacked: 2-D ops only, and every op once per encoder."""
    x = np.asarray(x, dtype=np.float64)
    ops = _ops(_block(model, bound, f"{enc}.0.b_mix"))
    h = ops.lift(x)
    for layer in range(model.arch.encoder_layers):
        p = f"{enc}.{layer}"
        if model.arch.encoder_mixing == "conv":
            h = reference_conv_layer(h, *(_block(model, bound, f"{p}.{k}") for k in
                                          ("w_prev", "w_cur", "w_next", "b_mix", "w_ff", "b_ff")))
        else:
            pre = ops.add(ops.matmul(h, _block(model, bound, f"{p}.w_in")),
                          _block(model, bound, f"{p}.b_mix"))
            mix = _recur(pre, _block(model, bound, f"{p}.u"))
            h = ops.tanh(ops.add(ops.matmul(mix, _block(model, bound, f"{p}.w_ff")),
                                 _block(model, bound, f"{p}.b_ff")))
    return h


def reference_encode_fused(model, bound, x):
    """Model.encode_fused as one encoder after another, summed pairwise in encoder order."""
    hs = [reference_encode(model, bound, x, enc) for enc in model.arch.encoder_names]
    return functools.reduce(_ops(hs[0]).add, hs), hs


def stacked_encode_fused(model, bound, x):
    """Model.encode_fused as it was before packing, over one utterance: the stacked encoders'
    sum, in encoder order, and the list of their outputs; one encoder's output is its own sum."""
    hs, ops = model.encode(bound, x), _ops(bound["encs.0.b_mix"])
    outs = [ops.select(hs, i) for i in range(len(model.arch.encoder_names))]
    return (outs[0] if len(outs) == 1 else ops.stack_sum(hs)), outs


def reference_finetune_loss(model, bound, vocab, utts, config, encode_fused=stacked_encode_fused):
    """training._finetune_loss as it was before packing: per utterance, the fused encoders
    (`encode_fused`: the stacked ones, or `reference_encode_fused`) and, for conditional-ls,
    each CTC head over its encoder's output. Returns the loss, the term sums and the heads'
    per-utterance log-posteriors (M, then E)."""
    ls = config.variant == "conditional-ls"
    lattices, heads = [], []
    for utt in utts:
        h_enc, hs = encode_fused(model, bound, utt.features)
        lattices.append(model.joint(bound, h_enc, model.predict(bound, utt.labels)))
        if ls:
            heads.append([model.ctc_head(bound, h, lang) for h, lang in zip(hs, "ME")])
    l_rnnt = rnnt_loss(lattices, [utt.labels for utt in utts])
    if not ls:
        return l_rnnt, {"rnnt": l_rnnt.item()}, []
    l_m, l_e = (
        ctc_loss([h[i] for h in heads],
                 [_local_labels(vocab, mask_labels(utt.labels, lang, vocab), lang) for utt in utts])
        for i, lang in enumerate("ME")
    )
    parts = {"rnnt": l_rnnt.item(), "ctc_m": l_m.item(), "ctc_e": l_e.item()}
    return ls_loss(l_rnnt, l_m, l_e, config.lam), parts, [list(h) for h in zip(*heads)]


def per_block_bind(model, tape):
    """`Model.bind` as it was before the encoders were stacked: a leaf per block, over a copy of
    it, adding its gradient into its view of the zero gradient vector returned with the leaves."""
    grad = np.zeros(model.n_params)
    grads = ParamViews(model.arch, grad)
    return {name: tape.leaf(arr.copy(), grads[name]) for name, arr in model.params.items()}, grad


def block_grads(model, grad):
    """Each block's gradient in `params` order: its view of `grad`, a step's gradient vector."""
    return list(ParamViews(model.arch, grad).values())


def reference_pretrain_logps(model, bound, items):
    """Model.subnets as it was before packing: per (lang, features) item, its language's
    encoder on its own rows, then that language's head. `bound` is `params` or the leaves of
    `per_block_bind`."""
    return [model.ctc_head(bound, reference_encode(model, bound, x, f"enc_{lang.lower()}"), lang)
            for lang, x in items]


def _reshape(x, shape):
    """The reshape op the joint was once recorded with, as a test-side custom node."""
    return ad.record_custom(x.data.reshape(shape), [x], lambda g: (g.reshape(x.shape),))


def reference_joint(model, bound, h_enc, h_dec):
    """Model.joint recorded op by op, as it was before it became one node."""
    T = h_enc.shape[0]
    U = h_dec.shape[0]
    J = model.arch.joint_dim
    e = ad.add(ad.matmul(h_enc, bound["joint.w_enc"]), bound["joint.b"])
    d = ad.matmul(h_dec, bound["joint.w_dec"])
    a = ad.tanh(ad.add(_reshape(e, (T, 1, J)), _reshape(d, (1, U, J))))
    logits = ad.add(ad.matmul(_reshape(a, (T * U, J)), bound["joint.w_out"]), bound["joint.b_out"])
    return _reshape(ad.log_softmax(logits, axis=1), (T, U, model.arch.n_units + 1))
