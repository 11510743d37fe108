import numpy as np
import pytest

from conftest import sum_all, zero_fill_accumulate
from csrt import autodiff as ad
from csrt.autodiff import Tape, Tensor, backward
from csrt.checks import full_model_grad_check, tiny_setup
from csrt.config import defaults
from csrt.decoding import rnnt_decode
from csrt.errors import CsrtError, FingerprintMismatchError, ShapeMismatchError
from csrt.losses import rnnt_loss
from csrt.model import (
    Architecture,
    Checkpoint,
    Model,
    init_params,
    load_checkpoint,
    n_params,
    save_checkpoint,
    variant_family,
)
from csrt.training import arch_for


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


class TestEncoder:
    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    def test_output_shape_preserves_length(self, mixing):
        model = Model(small_arch(mixing=mixing), seed=1)
        bound = model.bind(None)
        for t in (1, 2, 7):
            h = model.encode(bound, np.random.default_rng(t).standard_normal((t, 3)), "enc_m")
            assert h.shape == (t, 4)

    def test_zero_weights_zero_input_zero_output(self):
        model = Model(small_arch(), seed=1)
        for k in model.params:
            model.params[k] = np.zeros_like(model.params[k])
        bound = model.bind(None)
        h = model.encode(bound, np.zeros((4, 3)), "enc_m")
        assert np.array_equal(h.data, np.zeros((4, 4)))

    def test_dim_mismatch(self):
        model = Model(small_arch(), seed=1)
        with pytest.raises(ShapeMismatchError):
            model.encode(model.bind(None), np.zeros((4, 5)), "enc_m")

    def test_zero_frames_rejected(self):
        model = Model(small_arch(), seed=1)
        with pytest.raises(ShapeMismatchError):
            model.encode(model.bind(None), np.zeros((0, 3)), "enc_m")
        with pytest.raises(ShapeMismatchError):
            rnnt_decode(model, np.zeros((0, 3)))

    def test_deterministic(self):
        model = Model(small_arch(), seed=2)
        x = np.random.default_rng(0).standard_normal((5, 3))
        a = model.encode(model.bind(None), x, "enc_e").data
        b = model.encode(model.bind(None), x, "enc_e").data
        assert a.tobytes() == b.tobytes()


class TestHeadsAndFusion:
    def test_head_rows_normalize(self):
        model = Model(small_arch(), seed=3)
        bound = model.bind(None)
        h = model.encode(bound, np.random.default_rng(1).standard_normal((6, 3)), "enc_m")
        logp = model.ctc_head(bound, h, "M")
        assert logp.shape == (6, 3)
        assert np.max(np.abs(np.exp(logp.data).sum(axis=1) - 1.0)) < 1e-9

    def test_zero_logits_uniform(self):
        model = Model(small_arch(), seed=3)
        for k in ("head_m.w", "head_m.b"):
            model.params[k] = np.zeros_like(model.params[k])
        bound = model.bind(None)
        logp = model.ctc_head(bound, Tensor(np.zeros((2, 4))), "M")
        assert np.allclose(np.exp(logp.data), 1.0 / 3.0)

    def test_fuse_rules(self):
        a = Tensor(np.array([[1.0, 2.0]]))
        b = Tensor(np.array([[3.0, 4.0]]))
        c = Tensor(np.array([[1.0, 1.0]]))
        assert np.array_equal(Model.fuse(a, b).data, [[4.0, 6.0]])
        assert np.array_equal(Model.fuse(a, Tensor(np.zeros((1, 2)))).data, a.data)
        assert np.array_equal(Model.fuse(a, b, c).data, [[5.0, 7.0]])
        assert np.array_equal(Model.fuse(a, b).data, Model.fuse(b, a).data)
        with pytest.raises(ShapeMismatchError):
            Model.fuse(a, Tensor(np.zeros((2, 2))))


class TestDecoderAndJoint:
    def test_prefix_determinism_and_base_case(self):
        model = Model(small_arch(), seed=4)
        bound = model.bind(None)
        h0 = model.predict(bound, ())
        assert h0.shape == (1, 4)
        a = model.predict(bound, (1, 3)).data
        b = model.predict(bound, (1, 3)).data
        assert a.tobytes() == b.tobytes()
        assert a.shape == (3, 4)

    def test_invalid_label(self):
        model = Model(small_arch(), seed=4)
        with pytest.raises(CsrtError):
            model.predict(model.bind(None), (1, 99))

    def test_joint_normalizes_and_dims(self):
        model = Model(small_arch(), seed=5)
        bound = model.bind(None)
        h_enc, _, _ = model.encode_fused(bound, np.random.default_rng(2).standard_normal((3, 3)))
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
        bound = model.bind(None)
        with pytest.raises(ShapeMismatchError, match=r"\(3, 5\)"):
            model.joint(bound, Tensor(np.zeros((3, 5))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeMismatchError):
            model.joint(bound, Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))

    def test_lattice_feeds_rnnt_loss(self):
        model = Model(small_arch(), seed=5)
        tape = Tape()
        bound = model.bind(tape)
        out = model.forward(bound, np.random.default_rng(3).standard_normal((3, 3)), (1, 3))
        loss = rnnt_loss([out["rnnt"]], [(1, 3)])
        backward(loss)
        assert np.isfinite(loss.item())


class TestVariants:
    def test_conditional_returns_all_heads(self):
        model = Model(small_arch(), seed=6)
        out = model.forward(model.bind(None), np.zeros((2, 3)), (1,))
        assert out["rnnt"] is not None and out["ctc_m"] is not None and out["ctc_e"] is not None

    def test_vanilla_returns_rnnt_only(self):
        model = Model(small_arch(family="single"), seed=6)
        out = model.forward(model.bind(None), np.zeros((2, 3)), (1,))
        assert out["rnnt"] is not None and out["ctc_m"] is None and out["ctc_e"] is None
        with pytest.raises(CsrtError):
            model.ctc_head(model.bind(None), Tensor(np.zeros((2, 4))), "M")

    def test_three_encoder_matches_conditional_shape(self):
        dual = Model(small_arch(), seed=7)
        triple = Model(small_arch(family="triple"), seed=7)
        x = np.random.default_rng(4).standard_normal((3, 3))
        a = dual.forward(dual.bind(None), x, (1,))
        b = triple.forward(triple.bind(None), x, (1,))
        assert a["rnnt"].shape == b["rnnt"].shape

    def test_variant_families(self):
        assert variant_family("conditional") == "dual"
        assert variant_family("conditional-ls") == "dual"
        assert variant_family("three-encoder") == "triple"
        assert variant_family("vanilla") == "single"
        with pytest.raises(CsrtError):
            variant_family("bogus")

    def test_parameter_parity_vanilla_within_10pct(self, vocab55):
        vals = defaults()
        dual = arch_for("conditional", vals, vocab55, 8)
        single = arch_for("vanilla", vals, vocab55, 8)
        n_dual = n_params(init_params(dual, 0))
        n_single = n_params(init_params(single, 0))
        assert abs(n_single - n_dual) / n_dual < 0.10


class TestGradients:
    def test_full_model_grad_check_conv(self):
        assert full_model_grad_check(mixing="conv") < 1e-4

    def test_full_model_grad_check_recurrent(self):
        assert full_model_grad_check(mixing="recurrent") < 1e-4

    def test_probe_loss_through_encoder(self):
        from csrt.autodiff import grad_check
        from csrt import autodiff as ad

        model, _, x, _ = tiny_setup()
        names = sorted(model.params)

        def f(leaves):
            bound = dict(zip(names, leaves))
            return sum_all(ad.tanh(model.encode(bound, x, "enc_m")))

        assert grad_check(f, [model.params[n] for n in names]) < 1e-4


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
        arch = small_arch()
        good = tmp_path / "good.csrt"
        save_checkpoint(good, Checkpoint(arch.fingerprint(), dict(Model(arch, seed=0).params)))
        with pytest.raises(FingerprintMismatchError):
            load_checkpoint(good, expect_fingerprint="other text")

    def test_truncated_file(self, tmp_path):
        arch = small_arch()
        path = tmp_path / "t.csrt"
        save_checkpoint(path, Checkpoint(arch.fingerprint(), dict(Model(arch, seed=0).params)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(CsrtError):
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
        ],
        ids=["missing", "extra", "misshaped"],
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
        a = model.predict(model.bind(None), prefix).data
        b = reloaded.predict(reloaded.bind(None), prefix).data
        assert a.tobytes() == b.tobytes()


def test_seeded_init_is_deterministic():
    arch = small_arch()
    a = init_params(arch, 5)
    b = init_params(arch, 5)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    c = init_params(arch, 6)
    assert any(not np.array_equal(a[k], c[k]) for k in a)
