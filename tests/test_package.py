import importlib
import sys

import csrt
from csrt import autodiff, checks, losses, training
from csrt.data import Utterance
from csrt.model import Architecture, Model, variant_family

# What perfbench/workloads.py `install` wraps by name. Its tracer skips a missing
# name without a word, so a rename would read 0 in the benchmark. It also wraps
# Model.decoder_step and Model.joint_row, which no longer exist (transducer search
# runs on numpy arrays, see decoding.py), so they are left out here.
BENCHMARK_WRAPPED_FUNCTIONS = {
    "data": ("gen_corpus", "load_corpus"),
    "model": ("save_checkpoint", "load_checkpoint"),
    "losses": ("ctc_loss", "rnnt_loss"),
    "autodiff": ("record_custom", "backward"),
    "training": ("optimizer_step", "pretrain", "finetune"),
    "decoding": ("rnnt_decode",),
    "metrics": ("mixed_error_rate",),
}
BENCHMARK_WRAPPED_METHODS = ("encode", "encode_fused", "ctc_head", "predict", "joint")


def test_every_exported_name_resolves():
    missing = [name for name in csrt.__all__ if not hasattr(csrt, name)]
    assert missing == []


def test_every_name_the_benchmark_wraps_resolves():
    missing = [f"{module}.{name}" for module, names in BENCHMARK_WRAPPED_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"csrt.{module}"), name, None))]
    # Tracer.wrap_method looks in the class's own __dict__, not in its bases.
    missing += [f"Model.{name}" for name in BENCHMARK_WRAPPED_METHODS
                if not callable(Model.__dict__.get(name))]
    assert missing == []


def test_training_and_checks_call_the_loss_objects_the_benchmark_times(monkeypatch):
    # perfbench/tracer.py times the lattice losses by rebinding every csrt
    # name bound to losses.ctc_loss / losses.rnnt_loss; a call through any
    # other object would leave its per-layer loss spans reading 0.
    calls = {"ctc_loss": 0, "rnnt_loss": 0}
    for name in calls:
        orig = getattr(losses, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] == "csrt":
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, counted)
    model, vocab, x, y = checks.tiny_setup()
    bound = model.params
    utts = [Utterance("a", x, y), Utterance("b", x[:2], y[:1])]
    cfg = training.TrainingConfig(variant="conditional-ls")
    training._finetune_loss(model, bound, vocab, utts, cfg)
    assert calls == {"ctc_loss": 2, "rnnt_loss": 1}
    training._pretrain_loss(model, bound, vocab, [("M", utts[1]), ("E", Utterance("c", x, (3,)))])
    assert calls == {"ctc_loss": 3, "rnnt_loss": 1}
    checks.oracle_sweep(trials=2, seed=5)
    assert calls == {"ctc_loss": 5, "rnnt_loss": 3}
    checks.loss_grad_sweep(trials=1, seed=6)  # grad_check re-evaluates each loss
    assert calls["ctc_loss"] > 5 and calls["rnnt_loss"] > 3


def test_model_joint_records_through_autodiff_record_custom(monkeypatch):
    # perfbench/tracer.py times hand-written grad functions by rebinding
    # autodiff.record_custom; the conv encoder layer and the joint must look it up at call
    # time. Each records one 7-input node: a layer per conv layer, then the joint.
    recorded = []
    orig = autodiff.record_custom

    def spy(out_data, inputs, grad_fn):
        recorded.append(len(inputs))
        return orig(out_data, inputs, grad_fn)

    monkeypatch.setattr(autodiff, "record_custom", spy)
    model, _, x, y = checks.tiny_setup()
    bound, _ = model.bind(autodiff.Tape())
    h_enc, _ = model.encode_fused(bound, x)
    model.joint(bound, h_enc, model.predict(bound, y))
    assert recorded == [7] * (model.arch.encoder_layers + 1)


def test_finetune_calls_each_model_layer_the_benchmark_times(monkeypatch):
    # perfbench/tracer.py times these layers by rebinding the Model class attributes;
    # a loss that bypassed one would leave that layer's benchmark span reading 0.
    calls = dict.fromkeys(("encode_fused", "predict", "joint", "ctc_head"), 0)
    for name in calls:
        def counted(self, *args, _name=name, _orig=getattr(Model, name)):
            calls[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(Model, name, counted)
    _, vocab, x, y = checks.tiny_setup()
    utts = [Utterance("a", x, y), Utterance("b", x[:2], y[:1])]
    heads_per_utt = {"conditional-ls": 2, "conditional": 0, "three-encoder": 0, "vanilla": 0}
    for variant, heads in heads_per_utt.items():
        arch = Architecture(family=variant_family(variant), input_dim=3, hidden_dim=4,
                            encoder_layers=1, encoder_mixing="conv", embed_dim=3, decoder_dim=4,
                            joint_dim=4, n_m=vocab.n_m, n_e=vocab.n_e)
        model = Model(arch, seed=0)
        calls.update(dict.fromkeys(calls, 0))
        training._finetune_loss(model, model.bind(autodiff.Tape())[0], vocab, utts,
                                training.TrainingConfig(variant=variant))
        assert calls == {"encode_fused": 2, "predict": 2, "joint": 2, "ctc_head": 2 * heads}, variant


def test_training_steps_call_the_optimizer_the_benchmark_times(monkeypatch):
    # perfbench/tracer.py times the optimizer by rebinding `training.optimizer_step`; a step
    # that updated the parameters through any other object, after a rename or with the
    # optimizer inlined, would leave its `training.optimizer_step_ms` span reading 0.
    calls = []
    orig = training.optimizer_step

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(training, "optimizer_step", counted)
    model, vocab, x, y = checks.tiny_setup()
    cfg = training.TrainingConfig(variant="conditional-ls", epochs=1)
    training.pretrain([Utterance("m", x, (1,))], [Utterance("e", x, (3,))], cfg, model.arch,
                      vocab=vocab)
    assert len(calls) == 1
    training.finetune({"cs": [Utterance("cs", x, y)]}, None, cfg, model.arch, vocab=vocab)
    assert len(calls) == 2
