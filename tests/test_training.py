import numpy as np
import pytest

from csrt.config import defaults
from csrt.errors import CsrtError, FingerprintMismatchError, OptimizerError
from csrt.model import Model, init_params
from csrt.training import (
    TrainingConfig,
    TrainState,
    arch_for,
    finetune,
    optimizer_step,
    pretrain,
    schedule_lr,
)


def tcfg(**kw):
    vals = defaults()
    overrides = {k.replace("_", "-"): v for k, v in kw.items()}
    vals.update(overrides)
    return TrainingConfig.from_values(vals)


@pytest.fixture(scope="module")
def world(tiny_corpus):
    spec, corpus, _ = tiny_corpus
    vocab = corpus.vocab
    vals = defaults()
    arch = arch_for("conditional-ls", vals, vocab, spec.feature_dim)
    return corpus, vocab, arch


@pytest.fixture(scope="module")
def pretrained(world):
    corpus, vocab, arch = world
    return pretrain(
        corpus.split("train-mono-m"),
        corpus.split("train-mono-e"),
        tcfg(epochs=2),
        arch,
        dev_m=corpus.split("dev-mono-m"),
        dev_e=corpus.split("dev-mono-e"),
        vocab=vocab,
    )


def corpora_of(corpus):
    return {
        "cs": corpus.split("train-cs"),
        "mono-m": corpus.split("train-mono-m"),
        "mono-e": corpus.split("train-mono-e"),
    }


class TestSchedules:
    def test_constant(self):
        c = tcfg(schedule="constant", learning_rate=0.01)
        assert schedule_lr(c, 1) == schedule_lr(c, 999) == 0.01

    def test_warmup_peak_at_warmup_steps(self):
        c = tcfg(schedule="warmup-inverse-sqrt", learning_rate=0.01, warmup_steps=50)
        assert schedule_lr(c, 50) == pytest.approx(0.01)
        assert schedule_lr(c, 25) == pytest.approx(0.005)
        assert schedule_lr(c, 200) == pytest.approx(0.01 * 0.5)


class TestOptimizerStep:
    def test_zero_lr_no_change(self):
        params = {"w": np.array([1.0, -2.0])}
        optimizer_step(params, {"w": np.array([3.0, 4.0])}, TrainState(), tcfg(learning_rate=0.0))
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_plain_descent_square(self):
        # f(w) = w^2 from w=1, lr=0.1: w' = 1 - 0.1 * 2 = 0.8
        params = {"w": np.array(1.0)}
        cfg = tcfg(learning_rate=0.1, beta1=0.0, beta2=0.0, grad_clip=0.0)
        optimizer_step(params, {"w": np.array(2.0)}, TrainState(), cfg)
        assert params["w"] == pytest.approx(0.8)

    def test_nan_gradient_names_block(self):
        params = {"enc.w": np.array(1.0)}
        with pytest.raises(OptimizerError) as err:
            optimizer_step(params, {"enc.w": np.array(np.nan)}, TrainState(), tcfg())
        assert "enc.w" in str(err.value)

    def test_returns_norm_before_clipping(self):
        grads = {"a": np.full(4, 100.0), "b": np.array(0.0)}
        for clip, clipped in ((1.0, True), (200.0, False), (0.0, False)):
            params = {"a": np.zeros(4), "b": np.array(1.0)}
            norm, did_clip = optimizer_step(params, grads, TrainState(), tcfg(grad_clip=clip))
            assert norm == pytest.approx(200.0) and did_clip is clipped

    def test_clipping_bounds_update(self):
        params = {"w": np.zeros(4)}
        cfg = tcfg(learning_rate=1.0, beta1=0.0, beta2=0.0, grad_clip=1.0)
        optimizer_step(params, {"w": np.full(4, 100.0)}, TrainState(), cfg)
        assert np.linalg.norm(params["w"]) == pytest.approx(1.0)


class TestPretrain:
    def test_zero_epochs_equals_init(self, world):
        corpus, vocab, arch = world
        ck = pretrain(
            corpus.split("train-mono-m"),
            corpus.split("train-mono-e"),
            tcfg(epochs=0, seed=4),
            arch,
            vocab=vocab,
        )
        ip = init_params(arch, 4)
        assert all(np.array_equal(ck.blocks[k], ip[k]) for k in ip)

    def test_same_seed_bit_identical(self, world):
        corpus, vocab, arch = world
        runs = [
            pretrain(
                corpus.split("train-mono-m"),
                corpus.split("train-mono-e"),
                tcfg(epochs=1),
                arch,
                vocab=vocab,
            )
            for _ in range(2)
        ]
        assert all(
            runs[0].blocks[k].tobytes() == runs[1].blocks[k].tobytes() for k in runs[0].blocks
        )

    def test_decoder_and_joint_untouched(self, world, pretrained):
        _, _, arch = world
        ip = init_params(arch, 0)
        for k in ip:
            if k.startswith(("dec.", "joint.")):
                assert np.array_equal(pretrained.blocks[k], ip[k]), k
            elif k.startswith("enc_m.0"):
                assert not np.array_equal(pretrained.blocks[k], ip[k]), k

    def test_language_violation_rejected(self, world):
        corpus, vocab, arch = world
        with pytest.raises(CsrtError) as err:
            pretrain(
                corpus.split("train-mono-e"),  # E utterances passed as the M corpus
                corpus.split("train-mono-e"),
                tcfg(epochs=1),
                arch,
                vocab=vocab,
            )
        assert "language violation" in str(err.value)

    def test_vanilla_has_nothing_to_pretrain(self, world):
        corpus, vocab, _ = world
        arch1 = arch_for("vanilla", defaults(), vocab, 8)
        with pytest.raises(CsrtError):
            pretrain([], [], tcfg(variant="vanilla"), arch1, vocab=vocab)

    def test_resume_matches_uninterrupted(self, world, pretrained):
        # `pretrained` is the uninterrupted two-epoch run; stop inside epoch 1
        corpus, vocab, arch = world
        m, e = corpus.split("train-mono-m"), corpus.split("train-mono-e")
        part = pretrain(m, e, tcfg(epochs=2), arch, vocab=vocab, stop_after_steps=9)
        assert int(part.blocks["state.epoch"]) == 1
        resumed = pretrain(m, e, tcfg(epochs=2), arch, vocab=vocab, resume_from=part)
        assert sorted(resumed.blocks) == sorted(pretrained.blocks)
        assert all(
            pretrained.blocks[k].tobytes() == resumed.blocks[k].tobytes() for k in pretrained.blocks
        )

    def test_validation_logged_and_improves(self, world):
        corpus, vocab, arch = world
        lines = []
        pretrain(
            corpus.split("train-mono-m"),
            corpus.split("train-mono-e"),
            tcfg(epochs=2),
            arch,
            dev_m=corpus.split("dev-mono-m"),
            dev_e=corpus.split("dev-mono-e"),
            vocab=vocab,
            log=lines.append,
        )
        vals = [float(l.split("val_loss=")[1].split()[0]) for l in lines if "val_loss=" in l]
        assert len(vals) == 3  # initial + one per epoch
        best = [float(l.split("best=")[1].split()[0]) for l in lines if "best=" in l]
        assert best == sorted(best, reverse=True) or best[-1] <= best[0]


class TestFinetune:
    def test_fingerprint_mismatch_rejected(self, world, pretrained):
        corpus, vocab, _ = world
        arch3 = arch_for("three-encoder", defaults(), vocab, 8)
        with pytest.raises(FingerprintMismatchError):
            finetune(
                corpora_of(corpus), pretrained, tcfg(variant="three-encoder"), arch3, vocab=vocab
            )

    def test_requires_cs_data(self, world, pretrained):
        corpus, vocab, arch = world
        with pytest.raises(CsrtError):
            finetune({"cs": []}, pretrained, tcfg(epochs=1), arch, vocab=vocab)

    def test_lambda_one_matches_plain_rnnt_bitwise(self, world, pretrained):
        corpus, vocab, arch = world
        ck_a = finetune(
            corpora_of(corpus),
            pretrained,
            tcfg(variant="conditional-ls", epochs=1, **{"lambda": 1.0}),
            arch,
            vocab=vocab,
        )
        ck_b = finetune(
            corpora_of(corpus), pretrained, tcfg(variant="conditional", epochs=1), arch, vocab=vocab
        )
        for k in ck_a.blocks:
            if not k.startswith("state."):
                assert ck_a.blocks[k].tobytes() == ck_b.blocks[k].tobytes(), k

    def test_finetune_does_not_mutate_init_checkpoint(self, world, pretrained):
        corpus, vocab, arch = world
        before = {k: v.copy() for k, v in pretrained.blocks.items()}
        finetune(corpora_of(corpus), pretrained, tcfg(epochs=1), arch, vocab=vocab)
        assert all(np.array_equal(pretrained.blocks[k], before[k]) for k in before)

    def test_cs_only_ignores_mono(self, world, pretrained):
        corpus, vocab, arch = world
        ck_a = finetune(
            corpora_of(corpus),
            pretrained,
            tcfg(epochs=1, fine_tune_data="cs-only"),
            arch,
            vocab=vocab,
        )
        ck_b = finetune(
            {"cs": corpus.split("train-cs")},
            pretrained,
            tcfg(epochs=1, fine_tune_data="cs-only"),
            arch,
            vocab=vocab,
        )
        assert all(ck_a.blocks[k].tobytes() == ck_b.blocks[k].tobytes() for k in ck_a.blocks)

    def test_resume_matches_uninterrupted(self, world, pretrained):
        corpus, vocab, arch = world
        cfg = tcfg(epochs=2)
        full = finetune(corpora_of(corpus), pretrained, cfg, arch, vocab=vocab)
        part = finetune(
            corpora_of(corpus), pretrained, cfg, arch, vocab=vocab, stop_after_steps=5
        )
        resumed = finetune(corpora_of(corpus), part, cfg, arch, vocab=vocab, resume=True)
        assert all(full.blocks[k].tobytes() == resumed.blocks[k].tobytes() for k in full.blocks)

    def test_resume_needs_finetune_state(self, world, pretrained):
        corpus, vocab, arch = world
        with pytest.raises(CsrtError):
            finetune(corpora_of(corpus), pretrained, tcfg(epochs=1), arch, vocab=vocab, resume=True)

    def test_log_carries_loss_components(self, world, pretrained):
        corpus, vocab, arch = world
        lines = []
        finetune(
            corpora_of(corpus),
            pretrained,
            tcfg(variant="conditional-ls", epochs=1),
            arch,
            vocab=vocab,
            log=lines.append,
        )
        step_lines = [l for l in lines if l.startswith("step=")]
        assert step_lines
        assert all("rnnt=" in l and "ctc_m=" in l and "ctc_e=" in l and "lr=" in l for l in step_lines)


    def test_log_fields_present_and_parse(self, world, pretrained):
        corpus, vocab, arch = world
        lines = []
        finetune(corpora_of(corpus), pretrained, tcfg(epochs=1), arch, dev=corpus.split("dev-cs"),
                 vocab=vocab, log=lines.append, stop_after_steps=3)
        fields = [dict(f.split("=", 1) for f in line.split()) for line in lines]
        steps = [f for f in fields if "step" in f]
        assert len(steps) == 3 and all(next(iter(f)) == "step" for f in steps)
        for f in steps:
            assert float(f["loss"]) > 0 and float(f["grad_norm"]) > 0
            assert f["clipped"] in ("0", "1") and float(f["step_ms"]) >= 0
        epochs = [f for f in fields if "val_loss" in f]
        assert len(epochs) == 1 and float(epochs[0]["val_loss"]) > 0
        assert float(epochs[0]["val_s"]) >= 0


class TestConfigValidation:
    def test_lambda_range(self):
        with pytest.raises(CsrtError):
            tcfg(**{"lambda": 1.5})

    def test_mix_ratio_range(self):
        with pytest.raises(CsrtError):
            tcfg(mono_mix_ratio=-0.1)

    @pytest.mark.parametrize(
        "field, value, key",
        [("warmup_steps", -5, "warmup-steps"), ("beta1", 1.0, "beta1")],
    )
    def test_registry_ranges_apply(self, field, value, key):
        with pytest.raises(CsrtError, match=key):
            TrainingConfig(**{field: value})


def test_pretrained_subnet_greedy_cer_under_10pct(world):
    from csrt.decoding import greedy_ctc_decode
    from csrt.metrics import error_stats

    corpus, vocab, arch = world
    ck = pretrain(
        corpus.split("train-mono-m"),
        corpus.split("train-mono-e"),
        tcfg(epochs=12),
        arch,
        vocab=vocab,
    )
    model = Model(arch, params=ck.model_params())
    bound = model.bind(None)
    total = None
    for utt in corpus.split("test-mono-m"):
        h = model.encode(bound, utt.features, "enc_m")
        hyp_local = greedy_ctc_decode(model.ctc_head(bound, h, "M"))
        ref_local = tuple(vocab.to_local("M", u) for u in utt.labels)
        s = error_stats(hyp_local, ref_local)
        total = s if total is None else total + s
    assert total.rate < 0.10


def test_ls_finetune_handles_empty_masked_targets(world, pretrained):
    # a cs+mono LS run trains on monolingual batches whose masked
    # other-language reference is the empty sequence
    corpus, vocab, arch = world
    from csrt.training import _finetune_loss

    cfg = tcfg(variant="conditional-ls")
    model = Model(arch, params=pretrained.model_params())
    bound = model.bind(None)
    mono_m = corpus.split("train-mono-m")[0]
    loss, parts = _finetune_loss(model, bound, vocab, [mono_m], cfg)
    assert np.isfinite(loss.item())
    assert parts["ctc_e"] is not None  # empty-target CTC term still evaluated
