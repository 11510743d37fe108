import functools
import itertools
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    block_grads,
    per_block_bind,
    reference_conv_layer,
    reference_encode,
    reference_encode_fused,
    reference_joint,
    reference_pretrain_logps,
    sum_all,
    zero_fill_accumulate,
)
from csrt import autodiff as ad
from csrt.autodiff import Tape, Tensor, backward
from csrt.checks import full_model_grad_check, tiny_setup
from csrt.config import defaults
from csrt.data import CorpusSpec, Utterance, gen_corpus
from csrt.decoding import rnnt_decode
from csrt.errors import ConfigError, CsrtError, ShapeMismatchError
from csrt import model as model_module
from csrt.losses import ctc_loss, rnnt_loss
from csrt.model import (
    Architecture,
    Checkpoint,
    Model,
    _conv_layer,
    _param_layout,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
    variant_family,
)
from csrt.training import TrainingConfig, _finetune_loss, _pretrain_loss, arch_for


def small_arch(family="dual", mixing="conv", **kw):
    base = dict(
        family=family,
        input_dim=3,
        hidden_dim=4,
        encoder_layers=2,
        encoder_mixing=mixing,
        embed_dim=3,
        decoder_dim=4,
        joint_dim=4,
        n_m=2,
        n_e=2,
    )
    base.update(kw)
    return Architecture(**base)


class TestEncoder:
    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    def test_output_shape_preserves_length(self, mixing):
        model = Model(small_arch(mixing=mixing), seed=1)
        bound = model.params
        for t in (1, 2, 7):
            h = model.encode(bound, np.random.default_rng(t).standard_normal((t, 3)))
            assert h.shape == (2, t, 4)

    def test_zero_weights_zero_input_zero_output(self):
        model = Model(small_arch(), seed=1)
        for arr in model.params.values():
            arr[...] = 0.0  # in place: an encoder block is a view of its stack
        h = model.encode(model.params, np.zeros((4, 3)))
        assert np.array_equal(h, np.zeros((2, 4, 4)))

    def test_dim_mismatch(self):
        model = Model(small_arch(), seed=1)
        for bound in (model.bind(Tape())[0], model.params):  # Tensors, and the plain arrays
            with pytest.raises(ShapeMismatchError, match=r"\(4, 5\) do not match input dim 3"):
                model.encode(bound, np.zeros((4, 5)))
            with pytest.raises(ShapeMismatchError, match=r"\(3,\) do not match input dim 3"):
                model.encode(bound, np.zeros(3))

    def test_zero_frames_rejected(self):
        model = Model(small_arch(), seed=1)
        for bound in (model.bind(Tape())[0], model.params):
            with pytest.raises(ShapeMismatchError, match="zero frames"):
                model.encode(bound, np.zeros((0, 3)))
        with pytest.raises(ShapeMismatchError):
            rnnt_decode(model, np.zeros((0, 3)))

    def test_deterministic(self):
        model = Model(small_arch(), seed=2)
        x = np.random.default_rng(0).standard_normal((5, 3))
        a = model.encode(model.params, x)
        b = model.encode(model.params, x)
        assert a.tobytes() == b.tobytes()


class TestHeadsAndFusion:
    def test_head_rows_normalize(self):
        model = Model(small_arch(), seed=3)
        h = model.encode(model.params, np.random.default_rng(1).standard_normal((6, 3)))[0]
        logp = model.ctc_head(model.params, h, "M")
        assert logp.shape == (6, 3)
        assert np.max(np.abs(np.exp(logp).sum(axis=1) - 1.0)) < 1e-9

    def test_zero_logits_uniform(self):
        model = Model(small_arch(), seed=3)
        for k in ("head_m.w", "head_m.b"):
            model.params[k][...] = 0.0
        logp = model.ctc_head(model.params, np.zeros((2, 4)), "M")
        assert np.allclose(np.exp(logp), 1.0 / 3.0)

    @pytest.mark.parametrize("family", ["single", "dual", "triple"])
    def test_encode_fused_sums_the_encoders(self, family):
        model = Model(small_arch(family), seed=3)
        x = np.random.default_rng(2).standard_normal((5, 3))
        hs = [reference_encode(model, model.params, x, enc) for enc in model.arch.encoder_names]
        fused, outs = model.encode_fused(model.params, x)
        total = hs[0] if family == "single" else hs[0] + hs[1]
        if family == "triple":
            total = total + hs[2]
        assert fused.tobytes() == total.tobytes()
        assert [h.tobytes() for h in outs] == [h.tobytes() for h in hs]
        if family == "single":
            assert fused is outs[0]  # one encoder: its output is the sum, not a copy


FAMILY_VARIANT = {"single": "vanilla", "dual": "conditional-ls", "triple": "three-encoder"}


class TestStackedEncoders:
    """The stacked encoders against `reference_encode`, one encoder after another."""

    @staticmethod
    def outputs(model, bound, fused, hs):
        """The fused sum, each encoder's output and, where the family has them, both heads."""
        heads = ([model.ctc_head(bound, h, lang) for h, lang in zip(hs, "ME")]
                 if model.arch.has_ctc_heads else [])
        return [fused, *hs, *heads]

    @pytest.mark.parametrize("T", [1, 6])
    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    @pytest.mark.parametrize("family", ["single", "dual", "triple"])
    def test_values_and_gradients_bitwise_equal_the_reference(self, family, mixing, T):
        model = Model(small_arch(family, mixing), seed=21)
        rng = np.random.default_rng(T)
        x = rng.standard_normal((T, 3))
        got = self.outputs(model, model.params, *model.encode_fused(model.params, x))
        want = self.outputs(model, model.params, *reference_encode_fused(model, model.params, x))
        assert all(type(a) is np.ndarray for a in got)
        assert [a.tobytes() for a in got] == [w.tobytes() for w in want]
        upstream = [Tensor(rng.standard_normal(a.shape)) for a in got]

        def run(encode_fused, bind):
            bound, grad = bind(model, Tape())
            outs = self.outputs(model, bound, *encode_fused(model, bound, x))
            backward(sum_all(functools.reduce(
                ad.add, [sum_all(ad.mul(o, u)) for o, u in zip(outs, upstream)])))
            return [o.data for o in outs], block_grads(model, grad)

        values, grads = run(Model.encode_fused, Model.bind)
        want_values, want_grads = run(reference_encode_fused, per_block_bind)
        assert [a.tobytes() for a in values] == [w.tobytes() for w in got]
        assert [a.tobytes() for a in want_values] == [w.tobytes() for w in got]
        assert [g.tobytes() for g in grads] == [w.tobytes() for w in want_grads]

    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    @pytest.mark.parametrize("variant", ["vanilla", "conditional", "conditional-ls",
                                         "three-encoder"])
    def test_finetune_loss_and_gradients_bitwise_equal_the_reference(self, variant, mixing,
                                                                      vocab22, monkeypatch):
        model = Model(small_arch(variant_family(variant), mixing), seed=22)
        rng = np.random.default_rng(23)
        utts = [Utterance("a", rng.standard_normal((5, 3)), (1, 3, 2)),
                Utterance("b", rng.standard_normal((1, 3)), (4,))]
        cfg = TrainingConfig(variant=variant)

        def run(bind):
            bound, grad = bind(model, Tape())
            loss, parts = _finetune_loss(model, bound, vocab22, utts, cfg)
            backward(loss)
            return loss.item(), parts, [g.tobytes() for g in block_grads(model, grad)]

        got = run(Model.bind)
        monkeypatch.setattr(Model, "encode_fused", reference_encode_fused)
        assert got == run(per_block_bind)

    def test_blocks_are_views_of_the_stacks(self):
        model = Model(small_arch("triple"), seed=24)
        stack = model.params["encs.1.w_ff"]
        assert stack.shape == (3, 4, 4) and model.params["encs.0.b_mix"].shape == (3, 1, 4)
        model.params["enc_e.1.w_ff"][0, 0] = 7.0
        assert stack[1, 0, 0] == 7.0 and "encs.1.w_ff" not in model.params
        assert list(model.params) == [name for name, _, _ in _param_layout(model.arch)]

    def test_an_encoder_block_is_written_in_place_not_assigned(self):
        model = Model(small_arch(), seed=24)
        block, stack = model.params["enc_e.0.w_cur"], model.params["encs.0.w_cur"]
        with pytest.raises(CsrtError, match=r"^parameter block 'enc_e.0.w_cur' is a view of the"
                                            r" parameter vector; write it in place: "):
            model.params["enc_e.0.w_cur"] = np.zeros_like(block)
        assert model.params["enc_e.0.w_cur"] is block
        model.params["enc_e.0.w_cur"] += 1.0  # in place: `+=` hands back the view itself
        assert model.params["enc_e.0.w_cur"] is block and stack[1].tobytes() == block.tobytes()
        joint_b = model.params["joint.b"]
        with pytest.raises(CsrtError, match=r"^parameter block 'joint.b' is a view of the"):
            model.params["joint.b"] = np.ones(4)  # a block outside the stacks too
        assert model.params["joint.b"] is joint_b and not joint_b.any()

    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    @pytest.mark.parametrize("family", ["single", "dual", "triple"])
    def test_one_vector_behind_every_block_stack_and_gradient(self, family, mixing):
        model = Model(small_arch(family, mixing), seed=25)
        params, vec, encs = model.params, model.vec, model.arch.encoder_names
        assert model.n_params == vec.size == param_count(model.arch)
        assert all(np.shares_memory(a, vec) for a in [*params.values(), *params.stacks.values()])
        bound, grad = model.bind(Tape())
        assert all(np.shares_memory(t.data, vec) and np.shares_memory(t.grad, grad)
                   for t in bound.values())
        assert sum(t.grad.size for t in bound.values()) == grad.size  # each entry once
        for name in params:
            enc, _, kind = name.partition(".")
            if enc in encs:  # a write through the block shows in its stack, and the reverse
                block, stack = params[name], params[f"encs.{kind}"][encs.index(enc)]
                block.flat[-1] = 5.0
                assert stack.flat[-1] == 5.0
                stack.flat[0] = -5.0
                assert block.flat[0] == -5.0
            with pytest.raises(CsrtError, match=rf"^parameter block '{name}' is a view of the "
                                                r"parameter vector; write it in place: [^\n]*$"):
                params[name] = params[name].copy()


class TestConvLayerNode:
    """The conv layer's node against `reference_conv_layer`, its op-by-op graph."""

    @staticmethod
    def run(model, encode, x, upstream):
        """Output and every parameter gradient of sum(encode's output * upstream)."""
        bound, grad = model.bind(Tape())
        out = encode(bound, x)
        backward(sum_all(ad.mul(out, Tensor(upstream))))
        return [out.data] + block_grads(model, grad)

    @pytest.mark.parametrize("T", [1, 2, 6])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("family", ["single", "dual", "triple"])
    def test_encode_values_and_gradients_bitwise_equal_the_reference(self, family, layers, T):
        # Layer 0 reads the features, off the tape; a deeper layer's input is on it.
        model = Model(small_arch(family, encoder_layers=layers), seed=30 + T)
        rng = np.random.default_rng(T)
        x = rng.standard_normal((T, 3))

        def reference(bound, x):  # the stacked encoders with the layer recorded op by op
            return reference_encode(model, bound, x, "encs")

        value = model.encode(model.params, x)
        assert type(value) is np.ndarray
        assert value.tobytes() == reference(model.params, x).tobytes()
        upstream = rng.standard_normal(value.shape)
        got = self.run(model, model.encode, x, upstream)
        want = self.run(model, reference, x, upstream)
        assert got[0].tobytes() == value.tobytes()
        assert [a.tobytes() for a in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("T", [1, 2, 6])
    @pytest.mark.parametrize("n_enc,dead", [(None, False), (1, False), (3, False), (3, True)])
    def test_input_gradient_bitwise_equals_the_reference(self, n_enc, dead, T):
        # n_enc None: one encoder's 2-D blocks; else a stack, with or without dead rows.
        rng = np.random.default_rng(40 + T)
        lead, bias = ((), (4,)) if n_enc is None else ((n_enc,), (n_enc, 1, 4))
        shapes = [lead + (T, 5)] + [lead + (5, 4)] * 3 + [bias, lead + (4, 4), bias]
        arrays = [rng.standard_normal(shape) for shape in shapes]
        upstream = rng.standard_normal(lead + (T, 4))
        mask = rng.random(lead + (T,)) < 0.5 if dead else None

        def run(layer):
            tape = Tape()
            leaves = [tape.leaf(a) for a in arrays]
            out = layer(*leaves, dead=mask)
            backward(sum_all(ad.mul(out, Tensor(upstream))))
            return [out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]

        got = run(_conv_layer)
        assert got == run(reference_conv_layer)
        if dead:  # dead rows read 0, and a gradient arriving at them goes nowhere
            assert not np.frombuffer(got[0]).reshape(lead + (T, 4))[mask].any()
            upstream[mask] = rng.standard_normal(upstream[mask].shape)
            assert run(_conv_layer) == got

    def test_an_off_tape_input_gets_no_gradient(self):
        rng = np.random.default_rng(50)
        tape = Tape()
        h = Tensor(rng.standard_normal((3, 2)))
        weights = [tape.leaf(rng.standard_normal(s)) for s in [(2, 4)] * 3 + [(4,), (4, 4), (4,)]]
        out = _conv_layer(h, *weights)
        _, inputs, grad_fn = tape._nodes[-1]
        assert len(tape) == 1 and inputs[0] is h
        assert grad_fn(np.ones(out.shape))[0] is None and h.grad is None


def _ctc_targets(lengths):
    """A feasible local CTC target per item length: alternating units 1, 2, up to 3 labels."""
    return [tuple(1 + k % 2 for k in range(min(3, (t + 1) // 2))) for t in lengths]


# (lang, T) items: unequal M/E counts with T = 1 items and a tie, one language only, one item.
PACKED_BATCHES = {
    "mixed": [("M", 5), ("E", 2), ("M", 1), ("E", 4), ("M", 3), ("E", 1), ("M", 5)],
    "m-only": [("M", 3), ("M", 1), ("M", 4)],
    "e-only": [("E", 1), ("E", 6)],
    "single": [("E", 2)],
    "t1": [("M", 1), ("E", 1)],
}


def _close(a, b):
    """Within 1e-12 of b's largest magnitude."""
    return np.abs(np.asarray(a) - b).max() <= 1e-12 * np.abs(b).max()


class TestPackedSubnets:
    """`Model.subnets`, the packed pre-training pass, against `reference_pretrain_logps`: each
    item on its own language's encoder, recorded op by op over per-block leaves.

    Log-posteriors and the loss are bitwise equal, with one exception: a one-frame item packed
    among longer ones. Alone, its products are one-row matrix products, which BLAS computes
    with its matrix-vector kernel; packed, they are rows of a matrix product, and the two
    kernels may round the last bit differently. Gradients sum in another order, within 1e-12.
    """

    @staticmethod
    def check(items, logps, want_logps, loss, want_loss):
        packed_rows = max(len(x) for _, x in items) > 1
        exact = [len(x) > 1 or not packed_rows for _, x in items]
        for ok, got, want in zip(exact, logps, want_logps):
            assert got.tobytes() == want.tobytes() if ok else _close(got, want)
        assert loss == want_loss if all(exact) else _close(loss, want_loss)

    @staticmethod
    def items(batch, seed):
        rng = np.random.default_rng(seed)
        return [(lang, rng.standard_normal((t, 3))) for lang, t in PACKED_BATCHES[batch]]

    @staticmethod
    def run(model, items, packed):
        """Log-posteriors, summed CTC loss and every block gradient, taped."""
        tape = Tape()
        if packed:
            bound, grad = model.bind(tape)
            logps = model.subnets(bound, items)
        else:
            bound, grad = per_block_bind(model, tape)
            logps = reference_pretrain_logps(model, bound, items)
        loss = ctc_loss(logps, _ctc_targets([len(x) for _, x in items]))
        backward(loss)
        return [lp.data for lp in logps], loss.item(), dict(zip(model.params,
                                                                 block_grads(model, grad)))

    @pytest.mark.parametrize("batch", list(PACKED_BATCHES))
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    @pytest.mark.parametrize("family", ["dual", "triple"])
    def test_logps_and_loss_bitwise_gradients_within_1e12(self, family, mixing, layers, batch):
        model = Model(small_arch(family, mixing, encoder_layers=layers), seed=60 + layers)
        items = self.items(batch, seed=len(batch))
        got = model.subnets(model.params, items)  # tape-free, as validation and eval-ls run
        want = reference_pretrain_logps(model, model.params, items)
        assert [g.shape for g in got] == [(len(x), 3) for _, x in items]
        self.check(items, got, want, 0.0, 0.0)
        logps, loss, grads = self.run(model, items, packed=True)
        want_logps, want_loss, want_grads = self.run(model, items, packed=False)
        self.check(items, logps, want_logps, loss, want_loss)
        for name, g in grads.items():
            assert _close(g, want_grads[name]), name
            if name.startswith("enc_a."):  # the third encoder reads only dead rows
                assert not g.any(), name

    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    def test_random_batches(self, mixing):
        rng = np.random.default_rng(70)
        model = Model(small_arch("dual", mixing, hidden_dim=6), seed=71)
        for _ in range(6):
            items = [("ME"[int(rng.integers(2))], rng.standard_normal((int(rng.integers(2, 9)), 3)))
                     for _ in range(int(rng.integers(1, 9)))]
            logps, loss, grads = self.run(model, items, packed=True)
            want_logps, want_loss, want_grads = self.run(model, items, packed=False)
            self.check(items, logps, want_logps, loss, want_loss)
            assert all(_close(g, want_grads[n]) for n, g in grads.items())

    @pytest.mark.parametrize("family,mixing", [("dual", "conv"), ("dual", "recurrent"),
                                               ("triple", "conv")])
    def test_default_width_batch(self, family, mixing, tmp_path):
        # 5 + 3 utterances of CorpusSpec(seed=0, train_count=8) at default widths.
        corpus = gen_corpus(CorpusSpec(seed=0, train_count=8), tmp_path)
        variant = "three-encoder" if family == "triple" else "conditional"
        values = {**defaults(), "encoder-mixing": mixing}
        model = Model(arch_for(variant, values, corpus.vocab, corpus.feature_dim), seed=75)
        items = [("M", u.features) for u in corpus.split("train-mono-m")[:5]]
        items += [("E", u.features) for u in corpus.split("train-mono-e")[:3]]
        assert min(len(x) for _, x in items) > 1
        logps, loss, grads = self.run(model, items, packed=True)
        want_logps, want_loss, want_grads = self.run(model, items, packed=False)
        self.check(items, logps, want_logps, loss, want_loss)
        assert all(_close(g, want_grads[n]) for n, g in grads.items())

    def test_a_layer_that_keeps_its_dead_rows_leaks(self, monkeypatch):
        # The check above catches a conv layer that no longer zeroes the separator rows.
        model = Model(small_arch(encoder_layers=2), seed=72)
        items = self.items("m-only", seed=73)
        want = reference_pretrain_logps(model, model.params, items)
        assert [g.tobytes() for g in model.subnets(model.params, items)] == [
            w.tobytes() for w in want]
        layer = model_module._conv_layer
        monkeypatch.setattr(model_module, "_conv_layer", lambda *inputs, dead: layer(*inputs))
        got = model.subnets(model.params, items)
        assert any(g.tobytes() != w.tobytes() for g, w in zip(got, want))

    @pytest.mark.parametrize("features, message", [
        (np.zeros((0, 3)), r"subnets: item 1: features have zero frames"),
        (np.zeros((2, 5)), r"subnets: item 1: features \(2, 5\) do not match input dim 3"),
        (np.zeros(3), r"subnets: item 1: features \(3,\) do not match input dim 3"),
    ], ids=["zero-frames", "wrong-width", "one-dimensional"])
    def test_a_bad_item_is_a_one_line_shape_error(self, features, message):
        model = Model(small_arch(), seed=74)
        for bound in (model.params, model.bind(Tape())[0]):
            with pytest.raises(ShapeMismatchError, match=f"^{message}$"):
                model.subnets(bound, [("M", np.ones((2, 3))), ("E", features)])


class TestTapeNodes:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("packed", [False, True])
    def test_a_conv_encode_call_records_one_node_per_layer(self, packed, layers):
        model = Model(small_arch("triple", encoder_layers=layers), seed=27)
        tape = Tape()
        if packed:  # one block per encoder, as `subnets` packs them
            model.encode(model.bind(tape)[0], np.ones((3, 5, 3)), np.zeros((3, 5), dtype=bool))
        else:
            model.encode(model.bind(tape)[0], np.ones((5, 3)))
        assert len(tape) == layers

    @pytest.mark.parametrize("mixing,pretrain_nodes,finetune_nodes", [("conv", 19, 355),
                                                                     ("recurrent", 621, 1555)])
    def test_default_width_batches(self, tmp_path, mixing, pretrain_nodes, finetune_nodes):
        # 8 utterances of CorpusSpec(seed=0, train_count=8) at default widths. With conv
        # mixing, pre-training records 2 layer nodes for the packed batch, per language a pick
        # of its encoder and 3 head nodes, a row view per utterance and the CTC loss node.
        corpus = gen_corpus(CorpusSpec(seed=0, train_count=8), tmp_path)
        vocab = corpus.vocab
        values = {**defaults(), "encoder-mixing": mixing}
        model = Model(arch_for("conditional-ls", values, vocab, corpus.feature_dim), seed=0)
        items = [(lang, u) for lang in "ME" for u in corpus.split(f"train-mono-{lang.lower()}")[:4]]
        tape = Tape()
        bound, _ = model.bind(tape)
        assert len(bound) == (25 if mixing == "conv" else 23)  # a leaf per stack, per other block
        _pretrain_loss(model, bound, vocab, items)
        assert len(tape) == pretrain_nodes
        tape = Tape()
        _finetune_loss(model, model.bind(tape)[0], vocab, corpus.split("train-cs")[:8],
                       TrainingConfig(variant="conditional-ls"))
        assert len(tape) == finetune_nodes

    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    @pytest.mark.parametrize("family", ["single", "dual", "triple"])
    def test_the_encoders_record_one_encoders_worth_per_batch(self, family, mixing, vocab22,
                                                              monkeypatch):
        model = Model(small_arch(family, mixing), seed=25)
        rng = np.random.default_rng(26)
        utts = [Utterance(str(t), rng.standard_normal((t, 3)), (1, 3)[: t]) for t in (1, 2, 7, 4)]
        cfg = TrainingConfig(variant=FAMILY_VARIANT[family])

        def batch_nodes():  # the tape's length before backward, as perfbench counts it
            tape = Tape()
            _finetune_loss(model, model.bind(tape)[0], vocab22, utts, cfg)
            return len(tape)

        single = Model(small_arch("single", mixing), seed=25)  # a stack of one encoder

        def encoder_nodes(utt):
            tape = Tape()
            single.encode(single.bind(tape)[0], utt.features)
            return len(tape)

        total = batch_nodes()
        monkeypatch.setattr(Model, "encode_fused",  # the encoders on arrays, recording nothing
                            lambda self, bound, x, f=Model.encode_fused: f(self, self.params, x))
        outside = batch_nodes()
        one_encoder = sum(encoder_nodes(utt) for utt in utts)
        # Per utterance, beyond one encoder's ops: the sum and a pick of each encoder.
        assert total - outside <= one_encoder + (1 + len(model.arch.encoder_names)) * len(utts)


class TestArrayForwards:
    """Tape-free inference passes `params` itself; the components then run on plain arrays."""

    @pytest.mark.parametrize("T", [1, 6])
    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    @pytest.mark.parametrize("family", ["single", "dual", "triple"])
    def test_bitwise_equal_to_the_taped_path(self, family, mixing, T):
        model = Model(small_arch(family, mixing), seed=13)
        x = np.random.default_rng(T).standard_normal((T, 3))
        y = (1,) if T == 1 else (1, 4, 2)
        bound, _ = model.bind(Tape())
        fused, hs = model.encode_fused(model.params, x)
        want_fused, want_hs = model.encode_fused(bound, x)
        pred, want_pred = model.predict(model.params, y), model.predict(bound, y)
        got, want = [fused, *hs, pred], [want_fused, *want_hs, want_pred]
        if model.arch.has_ctc_heads:
            for lang, h, want_h in zip("ME", hs, want_hs):
                got += [model.ctc_head(model.params, h, lang),
                        *model.subnets(model.params, [(lang, x)])]
                want += [model.ctc_head(bound, want_h, lang)] * 2
        assert all(type(a) is np.ndarray for a in got)
        assert [a.tobytes() for a in got] == [w.data.tobytes() for w in want]
        lattice = model.joint(model.params, fused, pred)  # as validation calls it
        assert lattice.data.tobytes() == model.joint(bound, want_fused, want_pred).data.tobytes()

    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    def test_losses_on_arrays_equal_the_taped_losses(self, mixing, vocab22):
        model = Model(small_arch(mixing=mixing), seed=14)
        rng = np.random.default_rng(15)
        utts = [Utterance("a", rng.standard_normal((5, 3)), (1, 3)),
                Utterance("b", rng.standard_normal((1, 3)), (2,))]
        cfg = TrainingConfig(variant="conditional-ls")
        got = _finetune_loss(model, model.params, vocab22, utts, cfg)
        want = _finetune_loss(model, model.bind(Tape())[0], vocab22, utts, cfg)
        assert (got[0].item(), got[1]) == (want[0].item(), want[1])
        items = [("M", Utterance("m", rng.standard_normal((3, 3)), (1, 2)))]
        assert (_pretrain_loss(model, model.params, vocab22, items).item()
                == _pretrain_loss(model, model.bind(Tape())[0], vocab22, items).item())


class TestDecoderAndJoint:
    def test_prefix_determinism_and_base_case(self):
        model = Model(small_arch(), seed=4)
        h0 = model.predict(model.params, ())
        assert h0.shape == (1, 4)
        a = model.predict(model.params, (1, 3))
        b = model.predict(model.params, (1, 3))
        assert a.tobytes() == b.tobytes()
        assert a.shape == (3, 4)

    def test_invalid_label(self):
        model = Model(small_arch(), seed=4)
        with pytest.raises(CsrtError):
            model.predict(model.params, (1, 99))

    def test_joint_normalizes_and_dims(self):
        model = Model(small_arch(), seed=5)
        bound = model.params
        h_enc, _ = model.encode_fused(bound, np.random.default_rng(2).standard_normal((3, 3)))
        h_dec = model.predict(bound, (1,))
        lat = model.joint(bound, h_enc, h_dec)
        assert lat.shape == (3, 2, 5)  # V^M + V^E + blank = 5
        sums = np.exp(lat.data).sum(axis=2)
        assert np.max(np.abs(sums - 1.0)) < 1e-9

    @pytest.mark.parametrize("T,U", [(1, 1), (1, 4), (5, 1), (2, 3), (7, 5)])
    def test_joint_node_bitwise_equals_reference(self, T, U, monkeypatch):
        model = Model(small_arch(hidden_dim=5, decoder_dim=3, joint_dim=6), seed=9)
        rng = np.random.default_rng(10 * T + U)
        names = [f"joint.{k}" for k in ("w_enc", "b", "w_dec", "w_out", "b_out")]
        arrays = [rng.standard_normal((T, 5)), rng.standard_normal((U, 3))]
        arrays += [rng.standard_normal(model.params[n].shape) for n in names]
        upstream = rng.standard_normal((T, U, model.arch.n_units + 1))

        def run(joint):
            tape = Tape()
            h_enc, h_dec, *params = [tape.leaf(a.copy()) for a in arrays]
            lattice = joint(model, dict(zip(names, params)), h_enc, h_dec)
            kept = lattice.data.copy()
            backward(sum_all(ad.mul(lattice, Tensor(upstream))))
            assert lattice.data.tobytes() == kept.tobytes()  # backward leaves the loss input as is
            return lattice.data, [leaf.grad for leaf in (h_enc, h_dec, *params)]

        value, grads = run(Model.joint)
        with monkeypatch.context() as patch:  # the reference under zero-fill accumulation
            patch.setattr(Tensor, "_accumulate", zero_fill_accumulate)
            want_value, want_grads = run(reference_joint)
        assert value.shape == (T, U, 5) and value.tobytes() == want_value.tobytes()
        assert [g.tobytes() for g in grads] == [w.tobytes() for w in want_grads]

    def test_joint_shape_errors(self):
        model = Model(small_arch(), seed=5)
        bound = model.params
        with pytest.raises(ShapeMismatchError, match=r"\(3, 5\)"):
            model.joint(bound, Tensor(np.zeros((3, 5))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeMismatchError):
            model.joint(bound, Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))

    def test_lattice_feeds_rnnt_loss(self):
        model = Model(small_arch(), seed=5)
        tape = Tape()
        bound, _ = model.bind(tape)
        h_enc, _ = model.encode_fused(bound, np.random.default_rng(3).standard_normal((3, 3)))
        lattice = model.joint(bound, h_enc, model.predict(bound, (1, 3)))
        loss = rnnt_loss([lattice], [(1, 3)])
        backward(loss)
        assert np.isfinite(loss.item())


def finetune_parts(model, variant, vocab):
    """The loss terms `_finetune_loss` reports for one utterance of `variant`."""
    utt = Utterance("u", np.zeros((2, 3)), (1,))
    cfg = TrainingConfig(variant=variant)
    return _finetune_loss(model, model.params, vocab, [utt], cfg)[1]


class TestVariants:
    def test_conditional_returns_all_heads(self, vocab22):
        model = Model(small_arch(), seed=6)
        assert set(finetune_parts(model, "conditional-ls", vocab22)) == {"rnnt", "ctc_m", "ctc_e"}
        assert set(finetune_parts(model, "conditional", vocab22)) == {"rnnt"}
        _, (h_m, h_e) = model.encode_fused(model.params, np.zeros((2, 3)))
        assert model.ctc_head(model.params, h_m, "M").shape == (2, 3)
        assert model.ctc_head(model.params, h_e, "E").shape == (2, 3)

    def test_vanilla_returns_rnnt_only(self, vocab22):
        model = Model(small_arch(family="single"), seed=6)
        assert set(finetune_parts(model, "vanilla", vocab22)) == {"rnnt"}
        with pytest.raises(CsrtError):
            model.ctc_head(model.params, np.zeros((2, 4)), "M")
        with pytest.raises(CsrtError, match="no CTC heads"):  # asking for the LS terms
            finetune_parts(model, "conditional-ls", vocab22)

    @pytest.mark.parametrize("family, lang, message", [
        ("single", "M", "single architecture has no CTC heads"),
        ("dual", "X", "language must be 'M' or 'E', got 'X'"),
        ("triple", "m", "language must be 'M' or 'E', got 'm'"),
    ], ids=["no-heads", "unknown-language", "lowercase-language"])
    def test_subnet_and_head_check_family_and_language_first(self, family, lang, message):
        model = Model(small_arch(family=family), seed=6)
        x = np.zeros((2, 3))
        for bound in (model.params, model.bind(Tape())[0]):
            with pytest.raises(CsrtError, match=message):
                model.subnets(bound, [(lang, x)])
            with pytest.raises(CsrtError, match=message):
                model.ctc_head(bound, model.encode_fused(bound, x)[0], lang)

    def test_three_encoder_matches_conditional_shape(self):
        dual = Model(small_arch(), seed=7)
        triple = Model(small_arch(family="triple"), seed=7)
        x = np.random.default_rng(4).standard_normal((3, 3))
        a, b = (m.joint(bound, m.encode_fused(bound, x)[0], m.predict(bound, (1,)))
                for m, bound in ((dual, dual.params), (triple, triple.params)))
        assert a.shape == b.shape == (3, 2, 5)

    def test_variant_families(self):
        assert variant_family("conditional") == "dual"
        assert variant_family("conditional-ls") == "dual"
        assert variant_family("three-encoder") == "triple"
        assert variant_family("vanilla") == "single"
        with pytest.raises(CsrtError, match="bad value for 'variant': expected one of"):
            variant_family("bogus")

    @pytest.mark.parametrize("family", ["single", "dual", "triple"])
    def test_layout_count_is_the_allocated_count(self, family):
        for mixing in ("conv", "recurrent"):
            arch = small_arch(family=family, mixing=mixing, encoder_layers=3)
            assert param_count(arch) == Model(arch).n_params

    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    def test_vanilla_within_5pct_of_the_dual_count(self, vocab55, mixing):
        for hidden, layers in itertools.product(range(4, 129), (1, 2, 3)):
            vals = {**defaults(), "hidden-dim": hidden, "encoder-layers": layers,
                    "encoder-mixing": mixing}
            n_dual = param_count(arch_for("conditional", vals, vocab55, 8))
            n_single = param_count(arch_for("vanilla", vals, vocab55, 8))
            assert abs(n_single - n_dual) / n_dual <= 0.05, (hidden, layers)

    def test_vanilla_width_is_the_nearest_to_the_dual_count(self):
        grid = itertools.product((5, 200), (32, 1), (1, 2, 3), ("conv", "recurrent"), (1, 4, 16))
        for units, joint, layers, mixing, hidden in grid:
            vals = {**defaults(), "joint-dim": joint, "encoder-layers": layers,
                    "encoder-mixing": mixing, "hidden-dim": hidden}
            vocab = SimpleNamespace(n_m=units, n_e=units)
            single = arch_for("vanilla", vals, vocab, 8)
            assert single == replace(arch_for("conditional", vals, vocab, 8), family="single",
                                     hidden_dim=single.hidden_dim)
            target = param_count(arch_for("conditional", vals, vocab, 8))
            counts = [param_count(replace(single, hidden_dim=h)) for h in range(1, 200)]
            assert counts[-1] > target  # the scan passes the target
            gaps = [abs(n - target) for n in counts]
            assert single.hidden_dim == 1 + gaps.index(min(gaps)), (units, joint, layers, mixing,
                                                                    hidden)

    def test_vanilla_parity_width_above_the_bound_names_both_widths(self, vocab55):
        # At 1,290 the search once tried a width past 2,048 and refused a legal one.
        assert arch_for("vanilla", {**defaults(), "hidden-dim": 1290}, vocab55, 8).hidden_dim == 1825
        with pytest.raises(ConfigError) as err:
            arch_for("vanilla", {**defaults(), "hidden-dim": 1500}, vocab55, 8)
        assert str(err.value) == ("hidden-dim 1500 gives vanilla the parameter-parity width 2122: "
                                  "bad value for 'hidden-dim': must be <= 2048, got 2122")

    def test_vanilla_widths_at_two_settings(self, vocab55):
        # Defaults: 16,519 parameters against the dual model's 16,631. With large heads and a
        # one-wide joint, the heads outweigh the second encoder: far above 2 * hidden + 1.
        assert arch_for("vanilla", defaults(), vocab55, 8).hidden_dim == 46
        vals = {**defaults(), "joint-dim": 1, "encoder-layers": 1, "hidden-dim": 4}
        assert arch_for("vanilla", vals, SimpleNamespace(n_m=200, n_e=200), 8).hidden_dim == 36


class TestGradients:
    def test_full_model_grad_check_conv(self):
        assert full_model_grad_check(mixing="conv") < 1e-4

    def test_full_model_grad_check_recurrent(self):
        assert full_model_grad_check(mixing="recurrent") < 1e-4

    def test_probe_loss_through_encoder(self):
        from csrt.autodiff import grad_check
        from csrt import autodiff as ad

        model, _, x, _ = tiny_setup()
        arrays = model.params.roots()  # the encoder stacks and the other blocks, as bound
        names = sorted(arrays)

        def f(leaves):
            bound = dict(zip(names, leaves))
            return sum_all(ad.tanh(model.encode(bound, x)))

        assert grad_check(f, [arrays[n] for n in names]) < 1e-4


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        arch = small_arch()
        model = Model(arch, seed=8)
        blocks = dict(model.params)
        blocks["state.step"] = np.array(17.0)
        ck = Checkpoint(fingerprint=arch.fingerprint(), blocks=blocks)
        path = tmp_path / "ck.csrt"
        save_checkpoint(path, ck)
        loaded = load_checkpoint(path)
        assert loaded.fingerprint == arch.fingerprint()
        assert sorted(loaded.blocks) == sorted(blocks)
        for k in blocks:
            assert np.array_equal(loaded.blocks[k], blocks[k])
        assert loaded.architecture() == arch

    def test_magic_and_fingerprint_checks(self, tmp_path):
        path = tmp_path / "bad.csrt"
        path.write_bytes(b"NOPE!")
        with pytest.raises(CsrtError):
            load_checkpoint(path)

    @pytest.mark.parametrize("block", ["joint.w_out", "opt.m.dec.b", "state.step"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_rejected_by_name(self, tmp_path, block, value):
        arch = small_arch()
        blocks = dict(Model(arch, seed=0).params)
        blocks["opt.m.dec.b"] = np.zeros_like(blocks["dec.b"])
        blocks["state.step"] = np.array(3.0)
        blocks[block] = blocks[block].copy()
        blocks[block].flat[-1] = value
        path = tmp_path / "bad.csrt"
        save_checkpoint(path, Checkpoint(arch.fingerprint(), blocks))
        with pytest.raises(CsrtError, match=f"bad.csrt: block '{block}' holds a non-finite"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        arch = small_arch()
        path = tmp_path / "t.csrt"
        save_checkpoint(path, Checkpoint(arch.fingerprint(), dict(Model(arch, seed=0).params)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(CsrtError):
            load_checkpoint(path)

    def test_bytes_after_the_last_block_rejected(self, tmp_path):
        arch = small_arch()
        path = tmp_path / "t.csrt"
        save_checkpoint(path, Checkpoint(arch.fingerprint(), dict(Model(arch, seed=0).params)))
        path.write_bytes(path.read_bytes() + bytes(28))
        with pytest.raises(CsrtError, match="t.csrt: 28 bytes after the last block"):
            load_checkpoint(path)

    def test_repeated_block_name_rejected(self, tmp_path):
        arch = small_arch()
        blocks = dict(Model(arch, seed=0).params)
        path = tmp_path / "twice.csrt"
        save_checkpoint(path, Checkpoint(arch.fingerprint(), blocks))
        raw = bytearray(path.read_bytes())
        count_at = 5 + 4 + len(arch.fingerprint().encode())  # magic, fingerprint length, text
        raw[count_at : count_at + 4] = struct.pack("<I", len(blocks) + 1)
        raw += struct.pack("<I", 5) + b"dec.b" + struct.pack("<II", 1, 4) + bytes(32)
        path.write_bytes(bytes(raw))
        with pytest.raises(CsrtError, match="twice.csrt: block 'dec.b' appears twice"):
            load_checkpoint(path)

    def test_non_utf8_text_rejected(self, tmp_path):
        arch = small_arch()
        good = tmp_path / "good.csrt"
        save_checkpoint(good, Checkpoint(arch.fingerprint(), {"zz": np.zeros(2)}))
        raw = good.read_bytes()
        fp_at = raw.index(b"family")
        name_at = raw.rindex(b"zz")
        for at in (fp_at, name_at):
            bad = tmp_path / f"bad{at}.csrt"
            bad.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
            with pytest.raises(CsrtError) as err:
                load_checkpoint(bad)
            assert str(bad) in str(err.value) and "UTF-8" in str(err.value)

    def test_failed_save_keeps_existing_target(self, tmp_path):
        arch = small_arch()
        path = tmp_path / "ck.csrt"
        save_checkpoint(path, Checkpoint(arch.fingerprint(), dict(Model(arch, seed=0).params)))
        before = path.read_bytes()
        blocks = dict(Model(arch, seed=1).params)
        blocks["zz.bad"] = np.array(["not a number"])  # sorts last: fails after the other blocks
        with pytest.raises(ValueError):
            save_checkpoint(path, Checkpoint(arch.fingerprint(), blocks))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.csrt"]

    def test_fingerprint_text_roundtrip(self):
        arch = small_arch(mixing="recurrent", family="triple")
        assert Architecture.from_fingerprint(arch.fingerprint()) == arch

    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    @pytest.mark.parametrize("family", ["single", "dual", "triple"])
    def test_fingerprint_roundtrip_every_family(self, family, mixing):
        arch = small_arch(family=family, mixing=mixing)
        assert Architecture.from_fingerprint(arch.fingerprint()) == arch

    def test_fingerprint_golden_text(self):
        # Checkpoints store this text; changing it orphans every saved model.
        assert small_arch(n_e=3).fingerprint() == (
            "decoder-dim = 4\nembed-dim = 3\nencoder-layers = 2\nencoder-mixing = conv\n"
            "family = dual\nhidden-dim = 4\ninput-dim = 3\njoint-dim = 4\nunits-e = 3\n"
            "units-m = 2\n"
        )

    def test_out_of_range_dimension_rejected(self):
        with pytest.raises(CsrtError, match="hidden-dim"):
            small_arch(hidden_dim=0)

    def test_byte_identical_across_saves(self, tmp_path):
        arch = small_arch()
        ck = Checkpoint(arch.fingerprint(), dict(Model(arch, seed=9).params))
        p1, p2 = tmp_path / "a.csrt", tmp_path / "b.csrt"
        save_checkpoint(p1, ck)
        save_checkpoint(p2, ck)
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_copies_checkpoint_params(self):
        arch = small_arch()
        ck = Checkpoint(arch.fingerprint(), dict(Model(arch, seed=10).params))
        model = Model(arch, params=ck.model_params())
        key = next(iter(model.params))
        before = ck.blocks[key].copy()
        model.params[key] -= 1.0
        assert np.array_equal(ck.blocks[key], before)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda p: p.update({"joint.w_ouu": p.pop("joint.w_out")}), "'joint.w_out' is missing"),
            (lambda p: p.update({"joint.w_extra": np.zeros(2)}), "'joint.w_extra'"),
            (lambda p: p.update({"joint.w_out": np.zeros((4, 4))}), "'joint.w_out' has shape"),
            (lambda p: p["dec.b"].__setitem__(1, np.nan), "'dec.b' holds a non-finite value"),
            (lambda p: p["enc_m.0.w_cur"].__setitem__((2, 3), -np.inf),
             "'enc_m.0.w_cur' holds a non-finite value"),
        ],
        ids=["missing", "extra", "misshaped", "nan", "infinity"],
    )
    def test_params_checked_against_architecture(self, edit, named):
        arch = small_arch()
        params = dict(Model(arch, seed=12).params)
        edit(params)
        with pytest.raises(CsrtError) as err:
            Model(arch, params=params)
        assert named in str(err.value)

    def test_decoder_state_continues_identically_after_reload(self, tmp_path):
        arch = small_arch()
        model = Model(arch, seed=11)
        path = tmp_path / "m.csrt"
        save_checkpoint(path, Checkpoint(arch.fingerprint(), dict(model.params)))
        reloaded = Model(arch, params=load_checkpoint(path).model_params())
        prefix = (1, 3, 2)
        a = model.predict(model.params, prefix)
        b = reloaded.predict(reloaded.params, prefix)
        assert a.tobytes() == b.tobytes()


def test_seeded_init_is_deterministic():
    arch = small_arch()
    a = init_params(arch, 5)
    b = init_params(arch, 5)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    c = init_params(arch, 6)
    assert any(not np.array_equal(a[k], c[k]) for k in a)
