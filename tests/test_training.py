import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import reference_conv_layer, reference_encode_fused, reference_joint
from csrt import model as model_module
from csrt.autodiff import Tape
from csrt.config import defaults, resolved
from csrt.data import CorpusSpec, Utterance, gen_corpus
from csrt.errors import CsrtError, FingerprintMismatchError, OptimizerError
from csrt.model import (
    Architecture,
    Checkpoint,
    Model,
    ParamViews,
    _param_layout,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from csrt.training import (
    TrainingConfig,
    TrainState,
    _finish_checkpoint,
    arch_for,
    finetune,
    optimizer_step,
    pretrain,
    schedule_lr,
    start_from,
)


def tcfg(**kw):
    """TrainingConfig of the defaults and `kw`, by field name; an unknown key raises."""
    overrides = {k.replace("_", "-"): v for k, v in kw.items()}
    return TrainingConfig.from_values(resolved(None, overrides))


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


def reference_optimizer_step(params, grads, state, config):
    """optimizer_step as it was before the flat update: every block on its own, with
    per-block moment dicts `state.m` and `state.v` (see reference_state)."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient in parameter block {name!r}")
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    clipped = 0 < config.grad_clip < norm
    scale = config.grad_clip / norm if clipped else 1.0
    state.step += 1
    lr = schedule_lr(config, state.step)
    for name, arr in params.items():
        g = grads[name] * scale
        if config.beta1 > 0:
            m = state.m.setdefault(name, np.zeros_like(arr))
            m *= config.beta1
            m += (1.0 - config.beta1) * g
            update = m / (1.0 - config.beta1**state.step)
        else:
            update = g
        if config.beta2 > 0:
            v = state.v.setdefault(name, np.zeros_like(arr))
            v *= config.beta2
            v += (1.0 - config.beta2) * g * g
            vhat = v / (1.0 - config.beta2**state.step)
            update = update / (np.sqrt(vhat) + config.moment_eps)
        arr -= lr * update
    return norm, clipped


def _bits(blocks):
    return {k: (np.shape(v), np.asarray(v).tobytes()) for k, v in blocks.items()}


def reference_state(step=0, m=(), v=()):
    return SimpleNamespace(step=step, m=dict(m), v=dict(v))


def small_model(family="dual", seed=3):
    arch = Architecture(family=family, input_dim=3, hidden_dim=4, encoder_layers=1,
                        encoder_mixing="conv", embed_dim=3, decoder_dim=4, joint_dim=4,
                        n_m=2, n_e=2)
    return Model(arch, seed=seed)


def _moment_blocks(arch, flat):
    """A flat moment's blocks by name (views of it); {} for None."""
    return {} if flat is None else dict(ParamViews(arch, flat))


def _state_bits(arch, params, state):
    """Parameters, per-block moments and step; a TrainState's flat moments are viewed per block."""
    if isinstance(state, TrainState):
        state = reference_state(state.step, _moment_blocks(arch, state.m),
                                _moment_blocks(arch, state.v))
    return _bits(params), _bits(state.m), _bits(state.v), state.step


class TestSchedules:
    def test_constant(self):
        c = tcfg(warmup_steps=0, learning_rate=0.01)
        assert schedule_lr(c, 1) == schedule_lr(c, 999) == 0.01

    def test_warmup_peak_at_warmup_steps(self):
        c = tcfg(learning_rate=0.01, warmup_steps=50)
        assert schedule_lr(c, 50) == pytest.approx(0.01)
        assert schedule_lr(c, 25) == pytest.approx(0.005)
        assert schedule_lr(c, 200) == pytest.approx(0.01 * 0.5)


class TestOptimizerStep:
    def test_zero_lr_no_change(self):
        model = small_model()
        before = model.vec.copy()
        grad = np.random.default_rng(1).standard_normal(model.n_params)
        optimizer_step(model, grad, TrainState(), tcfg(learning_rate=0.0))
        assert model.vec.tobytes() == before.tobytes()

    def test_plain_descent_square(self):
        # f(w) = sum w^2, lr=0.1: w' = w - 0.1 * 2w = 0.8w, every block alike
        model = small_model()
        before = model.vec.copy()
        cfg = tcfg(learning_rate=0.1, beta1=0.0, beta2=0.0, grad_clip=0.0)
        optimizer_step(model, 2.0 * model.vec, TrainState(), cfg)
        assert model.vec == pytest.approx(0.8 * before)

    def test_nan_gradient_names_block(self):
        model = small_model("triple")
        grad = np.random.default_rng(2).standard_normal(model.n_params)
        ParamViews(model.arch, grad)["encs.0.w_cur"][1, 2, 1] = np.nan  # enc_e's slice
        with pytest.raises(OptimizerError, match=r"^non-finite gradient in parameter block "
                                                 r"'enc_e.0.w_cur'$"):
            optimizer_step(model, grad, TrainState(), tcfg())

    def test_returns_norm_before_clipping(self):
        model = small_model()
        grad = np.zeros(model.n_params)
        grad[[0, 5, -1, -7]] = 100.0
        for clip, clipped in ((1.0, True), (200.0, False), (0.0, False)):
            norm, did_clip = optimizer_step(model, grad, TrainState(), tcfg(grad_clip=clip))
            assert norm == pytest.approx(200.0) and did_clip is clipped

    @pytest.mark.parametrize("overrides", [
        {}, {"grad_clip": 0.5}, {"grad_clip": 1000.0}, {"grad_clip": 0.0}, {"beta1": 0.0},
        {"beta2": 0.0}, {"beta1": 0.0, "beta2": 0.0},
        {"warmup_steps": 2},
    ], ids=["default", "clipped", "clip-unreached", "clip-off", "beta1-0", "beta2-0",
            "plain-descent", "warmup"])
    def test_bitwise_equals_block_by_block_reference(self, overrides):
        cfg = tcfg(**overrides)
        model = small_model("triple", seed=5)
        rng = np.random.default_rng(5)
        grads = [3.0 * rng.standard_normal(model.n_params) for _ in range(4)]
        ref_params, ref = {k: v.copy() for k, v in model.params.items()}, reference_state()
        state, arch = TrainState(), model.arch
        returns = [optimizer_step(model, g, state, cfg) for g in grads]
        assert returns == [reference_optimizer_step(ref_params, ParamViews(arch, g), ref, cfg)
                           for g in grads]
        assert _state_bits(arch, model.params, state) == _state_bits(arch, ref_params, ref)
        assert any(clipped for _, clipped in returns) == (cfg.grad_clip not in (0.0, 1000.0))

    def test_resumed_moments_bitwise_equal_reference(self):
        model, state, cfg = small_model(), TrainState(), tcfg()
        arch, rng = model.arch, np.random.default_rng(8)
        for _ in range(2):
            optimizer_step(model, rng.standard_normal(model.n_params), state, cfg)
        ck = _finish_checkpoint(model, state, "finetune")
        kept = _bits(ck.blocks)
        later = [rng.standard_normal(model.n_params) for _ in range(3)]
        resumed, st = start_from(ck, arch, "finetune", resume=True)
        ref_params = {k: v.copy() for k, v in ck.model_params().items()}
        moments = {key: {k[6:]: v.copy() for k, v in ck.blocks.items()
                         if k.startswith(f"opt.{key}.")} for key in "mv"}
        ref = reference_state(st.step, **moments)
        returns = [optimizer_step(resumed, g, st, cfg) for g in later]
        assert returns == [reference_optimizer_step(ref_params, ParamViews(arch, g), ref, cfg)
                           for g in later]
        assert _state_bits(arch, resumed.params, st) == _state_bits(arch, ref_params, ref)
        saved = _finish_checkpoint(resumed, st, "finetune").blocks
        assert _bits({k: v for k, v in saved.items() if k.startswith("opt.")}) == _bits(
            {f"opt.{key}.{k}": v for key in "mv" for k, v in getattr(ref, key).items()})
        assert _bits(ck.blocks) == kept

    def test_resume_rejects_misfit_moment_blocks(self):
        arch = Architecture(family="single", input_dim=2, hidden_dim=3, encoder_layers=1,
                            encoder_mixing="conv", embed_dim=2, decoder_dim=3, joint_dim=3,
                            n_m=1, n_e=1)
        model, state = Model(arch, seed=1), TrainState()
        optimizer_step(model, np.ones(model.n_params), state, tcfg())
        ck = _finish_checkpoint(model, state, "finetune")
        for name, arr in (("opt.m.joint.w_out", np.zeros((4, 3))), ("opt.v.nope", np.zeros(2))):
            bad = type(ck)(ck.fingerprint, {**ck.blocks, name: arr})
            with pytest.raises(CsrtError, match=f"optimizer block '{name}'"):
                start_from(bad, arch, "finetune", resume=True)

    def test_resume_refuses_a_partial_moment_set(self):
        arch = Architecture(family="single", input_dim=2, hidden_dim=3, encoder_layers=1,
                            encoder_mixing="conv", embed_dim=2, decoder_dim=3, joint_dim=3,
                            n_m=1, n_e=1)
        model, state = Model(arch, seed=1), TrainState()
        optimizer_step(model, np.ones(model.n_params), state, tcfg())
        ck = _finish_checkpoint(model, state, "finetune")
        layout = list(model.params)
        for key in "mv":
            for dropped in ([layout[-1]], [layout[-1], layout[2]], layout[1:]):
                names = {f"opt.{key}.{n}" for n in dropped}
                bad = Checkpoint(ck.fingerprint, {k: v for k, v in ck.blocks.items()
                                                  if k not in names})
                first = f"opt.{key}.{min(dropped, key=layout.index)}"
                with pytest.raises(CsrtError, match=f"^optimizer block '{re.escape(first)}' "
                                                    "is missing: a kept moment needs every"):
                    start_from(bad, arch, "finetune", resume=True)
        # Strays are named in name order; a moment kind left out whole resumes from zeros.
        strays = Checkpoint(ck.fingerprint, {**ck.blocks, "opt.v.zz": np.zeros(1),
                                             "opt.m.zz": np.zeros(1)})
        with pytest.raises(CsrtError, match="^optimizer block 'opt.m.zz' does not fit"):
            start_from(strays, arch, "finetune", resume=True)
        no_v = {k: v for k, v in ck.blocks.items() if not k.startswith("opt.v.")}
        _, st = start_from(Checkpoint(ck.fingerprint, no_v), arch, "finetune", resume=True)
        assert st.v is None and _bits(_moment_blocks(arch, st.m)) == _bits(
            {k[6:]: v for k, v in ck.blocks.items() if k.startswith("opt.m.")})

    def test_non_finite_middle_block_changes_nothing(self):
        rng = np.random.default_rng(6)
        model, state, cfg = small_model(), TrainState(), tcfg()
        optimizer_step(model, rng.standard_normal(model.n_params), state, cfg)
        before = _state_bits(model.arch, model.params, state)
        for bad_value in (np.nan, np.inf):
            grad = rng.standard_normal(model.n_params)
            ParamViews(model.arch, grad)["encs.0.b_mix"][1, 0, 2] = bad_value  # enc_e's slice
            with pytest.raises(OptimizerError, match="block 'enc_e.0.b_mix'"):
                optimizer_step(model, grad, state, cfg)
            assert _state_bits(model.arch, model.params, state) == before

    def test_clipping_bounds_update(self):
        model = small_model()
        before = model.vec.copy()
        cfg = tcfg(learning_rate=1.0, beta1=0.0, beta2=0.0, grad_clip=1.0)
        optimizer_step(model, np.full(model.n_params, 100.0), TrainState(), cfg)
        assert np.linalg.norm(model.vec - before) == pytest.approx(1.0)


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
        with pytest.raises(CsrtError, match=r"no CTC heads .*finetune without --init"):
            pretrain([], [], tcfg(variant="vanilla"), arch1, vocab=vocab)

    def test_resume_matches_uninterrupted(self, world, pretrained):
        # `pretrained` is the uninterrupted two-epoch run; resume a one-epoch run to two
        corpus, vocab, arch = world
        m, e = corpus.split("train-mono-m"), corpus.split("train-mono-e")
        part = pretrain(m, e, tcfg(epochs=1), arch, vocab=vocab)
        assert int(part.blocks["state.epoch"]) == 1 and "state.batch" not in part.blocks
        resumed = pretrain(m, e, tcfg(epochs=2), arch, vocab=vocab, resume_from=part)
        assert sorted(resumed.blocks) == sorted(pretrained.blocks)
        assert all(
            pretrained.blocks[k].tobytes() == resumed.blocks[k].tobytes() for k in pretrained.blocks
        )

    def test_resume_through_a_checkpoint_file_matches_uninterrupted(self, world, tmp_path):
        # A file stores blocks by sorted name; the loaded model must still hold them in
        # _param_layout order, or the clip norm sums in another order and its last bit moves.
        corpus, vocab, arch = world
        m, e = corpus.split("train-mono-m"), corpus.split("train-mono-e")
        full = pretrain(m, e, tcfg(epochs=2, grad_clip=0.5), arch, vocab=vocab)
        part = pretrain(m, e, tcfg(epochs=1, grad_clip=0.5), arch, vocab=vocab)
        save_checkpoint(tmp_path / "part.csrt", part)
        # Older versions also wrote a state.batch block, 0 in every checkpoint a command saved.
        save_checkpoint(tmp_path / "older.csrt",
                        Checkpoint(part.fingerprint, {**part.blocks, "state.batch": np.array(0.0)}))
        for name in ("part.csrt", "older.csrt"):
            loaded = load_checkpoint(tmp_path / name)
            resumed = pretrain(m, e, tcfg(epochs=2, grad_clip=0.5), arch, vocab=vocab,
                               resume_from=loaded)
            assert sorted(resumed.blocks) == sorted(full.blocks)
            differ = [k for k in full.blocks
                      if full.blocks[k].tobytes() != resumed.blocks[k].tobytes()]
            assert differ == [], name
        model = Model(arch, params=loaded.model_params())
        assert list(model.params) == [name for name, _, _ in _param_layout(arch)]

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
    def test_vanilla_trains_from_its_seed_and_resumes(self, world):
        corpus, vocab, _ = world
        arch = arch_for("vanilla", defaults(), vocab, 8)
        whole = finetune(corpora_of(corpus), None, tcfg(variant="vanilla", epochs=2, seed=3),
                         arch, vocab=vocab)
        half = finetune(corpora_of(corpus), None, tcfg(variant="vanilla", epochs=1, seed=3),
                        arch, vocab=vocab)
        resumed = finetune(corpora_of(corpus), half, tcfg(variant="vanilla", epochs=2, seed=3),
                           arch, vocab=vocab, resume=True)
        assert whole.fingerprint == resumed.fingerprint == arch.fingerprint()
        assert whole.blocks.keys() == resumed.blocks.keys()
        assert all(whole.blocks[k].tobytes() == resumed.blocks[k].tobytes() for k in whole.blocks)
        assert not any(np.array_equal(whole.blocks[k], v)
                       for k, v in init_params(arch, 3).items() if k.endswith(".w_ff"))

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
            tcfg(epochs=1, mono_mix_ratio=0.0),
            arch,
            vocab=vocab,
        )
        ck_b = finetune(
            {"cs": corpus.split("train-cs")},
            pretrained,
            tcfg(epochs=1, mono_mix_ratio=0.0),
            arch,
            vocab=vocab,
        )
        assert all(ck_a.blocks[k].tobytes() == ck_b.blocks[k].tobytes() for k in ck_a.blocks)

    def test_resume_matches_uninterrupted(self, world, pretrained, tmp_path):
        corpus, vocab, arch = world
        cfg = tcfg(epochs=2)
        full = finetune(corpora_of(corpus), pretrained, cfg, arch, vocab=vocab)
        part = finetune(corpora_of(corpus), pretrained, tcfg(epochs=1), arch, vocab=vocab)
        # In memory, and through a file as older versions wrote it, with a state.batch of 0.
        path = tmp_path / "older.csrt"
        older = {**part.blocks, "state.batch": np.array(0.0)}
        save_checkpoint(path, Checkpoint(part.fingerprint, older))
        for start in (part, load_checkpoint(path)):
            resumed = finetune(corpora_of(corpus), start, cfg, arch, vocab=vocab, resume=True)
            assert sorted(resumed.blocks) == sorted(full.blocks)
            assert all(full.blocks[k].tobytes() == resumed.blocks[k].tobytes()
                       for k in full.blocks)

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
                 vocab=vocab, log=lines.append)
        fields = [dict(f.split("=", 1) for f in line.split()) for line in lines]
        steps = [f for f in fields if "step" in f]
        n_utts = sum(map(len, corpora_of(corpus).values()))
        assert len(steps) == n_utts // tcfg().batch_size  # one epoch's batches
        assert all(next(iter(f)) == "step" for f in steps)
        for f in steps:
            assert float(f["loss"]) > 0 and float(f["grad_norm"]) > 0
            assert f["clipped"] in ("0", "1") and float(f["step_ms"]) >= 0
        epochs = [f for f in fields if "val_loss" in f]
        assert [f["epoch"] for f in epochs] == ["0", "1"]
        assert all(float(f["val_loss"]) > 0 and float(f["val_s"]) >= 0 for f in epochs)


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
    bound = model.params  # tape-free: greedy_ctc_decode takes the head's plain array
    total = None
    for utt in corpus.split("test-mono-m"):
        hyp_local = greedy_ctc_decode(model.subnets(bound, [("M", utt.features)])[0])
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
    mono_m = corpus.split("train-mono-m")[0]
    loss, parts = _finetune_loss(model, model.bind(Tape())[0], vocab, [mono_m], cfg)
    assert np.isfinite(loss.item())
    assert parts["ctc_e"] is not None  # empty-target CTC term still evaluated


@pytest.mark.parametrize("where", ["train", "dev"])
def test_ls_finetune_rejects_a_masked_target_longer_than_its_frames(world, pretrained, where):
    # CTC needs a frame per label (plus one per repeat); the transducer alone does not.
    corpus, vocab, arch = world
    utt = corpus.split("train-cs")[0]
    T = len(utt.features)
    m_units, e_unit = vocab.lang_ids("M"), vocab.lang_ids("E")[0]
    labels = tuple(m_units[i % 2] for i in range(T + 1)) + (e_unit,)
    bad = Utterance("too-long", utt.features, labels)
    corpora = {k: list(v) for k, v in corpora_of(corpus).items()}
    dev = list(corpus.split("dev-cs"))
    (corpora["cs"] if where == "train" else dev).insert(0, bad)
    for variant in ("conditional-ls", "conditional"):
        cfg = tcfg(epochs=0, variant=variant)
        if variant == "conditional-ls":
            with pytest.raises(CsrtError, match=f"utterance too-long: its {T + 1} M labels need "
                                                f"{T + 1} CTC frames, it has {T}"):
                finetune(corpora, pretrained, cfg, arch, dev=dev, vocab=vocab)
        else:
            finetune(corpora, pretrained, cfg, arch, dev=dev, vocab=vocab)


class TestSameBits:
    """Whole runs, through `bind`, the optimizer, validation, the checkpoint and a resume, write
    the same bytes with every fused node swapped for its op-by-op reference."""

    @pytest.mark.parametrize("mixing", ["conv", "recurrent"])
    def test_checkpoints_equal_with_the_references_swapped_in(self, mixing, tmp_path,
                                                              monkeypatch):
        spec = CorpusSpec(seed=3, train_count=24, dev_count=6, test_count=4)
        corpus = gen_corpus(spec, tmp_path / "corpus")
        vocab, split = corpus.vocab, corpus.split
        values = {**defaults(), "hidden-dim": 16, "joint-dim": 16, "encoder-mixing": mixing}

        def checkpoint_bytes(ck):
            save_checkpoint(tmp_path / "ck.csrt", ck)
            return (tmp_path / "ck.csrt").read_bytes()

        def runs():  # pretrain, finetune and its resume, 2 epochs each, for every variant
            out, pretrained = [], {}
            for variant in ("conditional-ls", "conditional", "three-encoder", "vanilla"):
                arch = arch_for(variant, values, vocab, spec.feature_dim)
                cfg = tcfg(epochs=2, seed=5, variant=variant)
                if arch.has_ctc_heads and arch not in pretrained:
                    pretrained[arch] = pretrain(split("train-mono-m"), split("train-mono-e"), cfg,
                                                arch, split("dev-mono-m"), split("dev-mono-e"),
                                                vocab=vocab)
                    out.append(pretrained[arch])
                init = pretrained.get(arch)
                for epochs, resume in ((1, False), (2, True)):
                    init = finetune(corpora_of(corpus), init, tcfg(epochs=epochs, seed=5,
                                                                   variant=variant),
                                    arch, split("dev-cs"), vocab=vocab, resume=resume)
                    out.append(init)
            return [checkpoint_bytes(ck) for ck in out]

        fused = runs()
        assert len(fused) == 10
        monkeypatch.setattr(model_module, "_conv_layer", reference_conv_layer)
        monkeypatch.setattr(Model, "encode_fused", reference_encode_fused)
        monkeypatch.setattr(Model, "joint", reference_joint)
        assert runs() == fused
