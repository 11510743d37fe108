import functools

import numpy as np
import pytest

from csrt import autodiff as ad
from csrt.alignments import Vocabulary
from csrt.data import CorpusSpec, gen_corpus
from csrt.model import _ops, _recur


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


def reference_conv_layer(h, w_prev, w_cur, w_next, b_mix, w_ff, b_ff):
    """model._conv_layer recorded op by op, as it was before it became one node."""
    ops, T = _ops(b_ff), h.shape[-2]
    pad = ops.lift(np.zeros(h.shape[:-2] + (1, h.shape[-1])))
    padded = ops.concat([pad, h, pad])
    prev, nxt = ops.rows(padded, 0, T), ops.rows(padded, 2, T + 2)
    mix = ops.matmul(prev, w_prev)
    mix = ops.add(mix, ops.matmul(h, w_cur))
    mix = ops.add(mix, ops.matmul(nxt, w_next))
    mix = ops.tanh(ops.add(mix, b_mix))
    return ops.tanh(ops.add(ops.matmul(mix, w_ff), b_ff))


def reference_encode(model, bound, x, enc):
    """Model.encode recorded op by op. Run per encoder (`reference_encode_fused`), it is the
    encoders as they ran before they were stacked: 2-D ops only, and every op once per
    encoder; with `enc` "encs", the stacked encoders before the conv layer became one node."""
    x = np.asarray(x, dtype=np.float64)
    ops = _ops(bound[f"{enc}.0.b_mix"])
    h = ops.lift(x)
    for layer in range(model.arch.encoder_layers):
        p = f"{enc}.{layer}"
        if model.arch.encoder_mixing == "conv":
            h = reference_conv_layer(h, *(bound[f"{p}.{k}"] for k in
                                          ("w_prev", "w_cur", "w_next", "b_mix", "w_ff", "b_ff")))
        else:
            pre = ops.add(ops.matmul(h, bound[f"{p}.w_in"]), bound[f"{p}.b_mix"])
            mix = _recur(pre, bound[f"{p}.u"])
            h = ops.tanh(ops.add(ops.matmul(mix, bound[f"{p}.w_ff"]), bound[f"{p}.b_ff"]))
    return h


def reference_encode_fused(model, bound, x):
    """Model.encode_fused as one encoder after another, summed pairwise in encoder order."""
    hs = [reference_encode(model, bound, x, enc) for enc in model.arch.encoder_names]
    return functools.reduce(_ops(hs[0]).add, hs), hs
