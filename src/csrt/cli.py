"""Command-line pipeline driver.

One process per command: corpus generation, the two training stages,
decoding, evaluation, the language-separation ablation, posterior dumps,
and the oracle/gradient self-checks. Every flag mirrors a config-file key
(see config.REGISTRY); explicit flags override the file, which overrides
the defaults. Commands that create an output directory refuse to reuse a
non-empty one unless --force is given, and always write the resolved
config there plus an append-only plain-text log.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checks, config
from .data import CorpusSpec, gen_corpus, load_corpus
from .decoding import rnnt_decode
from .errors import ConfigError, CsrtError
from .metrics import (
    dump_frame_posteriors,
    eval_language_separation,
    evaluate_split,
    format_separation_report,
    format_split_report,
)
from .model import Model, load_checkpoint, save_checkpoint, write_atomic
from .training import TrainingConfig, arch_for, finetune, pretrain

CHECKPOINT_NAME = "checkpoint.csrt"

_COMMON = ("seed", "out", "force")
_MODEL_KEYS = (
    "variant",
    "hidden-dim",
    "vanilla-hidden-dim",
    "encoder-layers",
    "encoder-mixing",
    "embed-dim",
    "decoder-dim",
    "joint-dim",
)
_TRAIN_KEYS = (
    "learning-rate",
    "schedule",
    "warmup-steps",
    "epochs",
    "batch-size",
    "beta1",
    "beta2",
    "moment-eps",
    "grad-clip",
)

COMMAND_KEYS = {
    "gen-data": _COMMON
    + (
        "spec",
        "units-per-language",
        "feature-dim",
        "frames-min",
        "frames-max",
        "noise-sigma",
        "utt-units-min",
        "utt-units-max",
        "cs-spans-max",
        "cs-matrix-fraction",
        "cross-lingual-offset",
        "train-count",
        "dev-count",
        "test-count",
    ),
    "pretrain": _COMMON + ("data", "init", "resume") + _MODEL_KEYS + _TRAIN_KEYS,
    "finetune": _COMMON
    + ("data", "init", "resume", "lambda", "fine-tune-data", "mono-mix-ratio")
    + _MODEL_KEYS
    + _TRAIN_KEYS,
    "decode": _COMMON + ("data", "model", "split", "beam"),
    "eval": _COMMON + ("data", "model", "split", "beam"),
    "eval-ls": _COMMON + ("data", "model", "split"),
    "dump-posteriors": _COMMON + ("data", "model", "utt"),
    "gradcheck": ("seed",),
    "oracle-check": ("seed", "trials"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="csrt", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command")
    for command, keys in COMMAND_KEYS.items():
        p = sub.add_parser(command, help=f"{command} command")
        p.add_argument("--config", default=None, help="config file (key = value lines)")
        for key in keys:
            _, default, help_text = config.REGISTRY[key]
            if isinstance(default, bool):
                p.add_argument(f"--{key}", dest=key, action="store_const", const="true",
                               default=None, help=help_text)
            else:
                p.add_argument(f"--{key}", dest=key, default=None, metavar="V", help=help_text)
    return parser


def resolve_values(args, command):
    file_values = config.load_config(args.config) if args.config else None
    overrides = {}
    for key in COMMAND_KEYS[command]:
        raw = getattr(args, key)
        if raw is not None:
            try:
                overrides[key] = config.convert(key, raw)
            except ConfigError as exc:
                raise UsageError(str(exc))
    return config.resolved(file_values, overrides)


class RunDir:
    """Output directory with the resolved config and an append-only log."""

    def __init__(self, path, values, force):
        self.path = Path(path)
        if self.path.exists() and any(self.path.iterdir()) and not force:
            raise CsrtError(f"output directory {self.path} is not empty; pass --force to reuse")
        self.path.mkdir(parents=True, exist_ok=True)
        (self.path / "config.txt").write_text(config.serialize_config(values), encoding="utf-8")
        self._log_path = self.path / "log.txt"

    def log(self, line):
        with open(self._log_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        print(line)


def _require(values, key, command):
    if not values[key]:
        raise UsageError(f"{command} requires --{key}")
    return values[key]


def _checkpoint_path(path):
    p = Path(path)
    return p / CHECKPOINT_NAME if p.is_dir() else p


def _load_model(path):
    ck = load_checkpoint(_checkpoint_path(path))
    return Model(ck.architecture(), params=ck.model_params())


def _corpus_and_arch(values, command):
    corpus = load_corpus(_require(values, "data", command))
    any_split = next(iter(corpus.splits.values()))
    input_dim = any_split[0].features.shape[1]
    arch = arch_for(values["variant"], values, corpus.vocab, input_dim)
    return corpus, arch


def cmd_gen_data(values):
    out = _require(values, "out", "gen-data")
    run = RunDir(out, values, values["force"])
    spec = CorpusSpec(
        units_per_language=values["units-per-language"],
        feature_dim=values["feature-dim"],
        frames_min=values["frames-min"],
        frames_max=values["frames-max"],
        noise_sigma=values["noise-sigma"],
        utt_units_min=values["utt-units-min"],
        utt_units_max=values["utt-units-max"],
        cs_spans_max=values["cs-spans-max"],
        cs_matrix_fraction=values["cs-matrix-fraction"],
        cross_lingual_offset=values["cross-lingual-offset"],
        train_count=values["train-count"],
        dev_count=values["dev-count"],
        test_count=values["test-count"],
        seed=values["seed"],
    )
    corpus = gen_corpus(spec, run.path)
    for split, utts in sorted(corpus.splits.items()):
        run.log(f"split={split} utterances={len(utts)}")
    return 0


def cmd_pretrain(values):
    out = _require(values, "out", "pretrain")
    if values["init"] and not values["resume"]:
        raise UsageError("pretrain --init needs --resume (pretraining starts from scratch)")
    corpus, arch = _corpus_and_arch(values, "pretrain")
    run = RunDir(out, values, values["force"])
    tcfg = TrainingConfig.from_values(values)
    resume_from = None
    if values["resume"]:
        resume_from = load_checkpoint(_checkpoint_path(_require(values, "init", "pretrain")))
    ck = pretrain(
        corpus.split("train-mono-m"),
        corpus.split("train-mono-e"),
        tcfg,
        arch,
        dev_m=corpus.split("dev-mono-m"),
        dev_e=corpus.split("dev-mono-e"),
        vocab=corpus.vocab,
        log=run.log,
        resume_from=resume_from,
    )
    save_checkpoint(run.path / CHECKPOINT_NAME, ck)
    run.log(f"saved {run.path / CHECKPOINT_NAME}")
    return 0


def cmd_finetune(values):
    out = _require(values, "out", "finetune")
    corpus, arch = _corpus_and_arch(values, "finetune")
    init = load_checkpoint(_checkpoint_path(_require(values, "init", "finetune")))
    run = RunDir(out, values, values["force"])
    tcfg = TrainingConfig.from_values(values)
    corpora = {
        "cs": corpus.split("train-cs"),
        "mono-m": corpus.split("train-mono-m"),
        "mono-e": corpus.split("train-mono-e"),
    }
    ck = finetune(
        corpora,
        init,
        tcfg,
        arch,
        dev=corpus.split("dev-cs"),
        vocab=corpus.vocab,
        log=run.log,
        resume=values["resume"],
    )
    save_checkpoint(run.path / CHECKPOINT_NAME, ck)
    run.log(f"saved {run.path / CHECKPOINT_NAME}")
    return 0


def _write_text(path, text):
    write_atomic(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _hyps_text(hyps, vocab):
    """hyps.tsv text: per (uid, hyp) pair, the id, a tab and the space-joined surfaces."""
    lines = [uid + "\t" + " ".join(vocab.surface(u) for u in hyp) for uid, hyp in hyps]
    return "\n".join(lines) + "\n"


def cmd_decode(values):
    model = _load_model(_require(values, "model", "decode"))
    corpus = load_corpus(_require(values, "data", "decode"))
    utts = corpus.split(values["split"])
    out = _require(values, "out", "decode")
    run = RunDir(out, values, values["force"])
    hyps = []
    for utt in utts:
        hyp, score = rnnt_decode(model, utt.features, beam=values["beam"])
        hyps.append((utt.uid, hyp))
        run.log(f"decoded {utt.uid} score={score:.4f}")
    _write_text(run.path / "hyps.tsv", _hyps_text(hyps, corpus.vocab))
    return 0


def cmd_eval(values):
    model = _load_model(_require(values, "model", "eval"))
    corpus = load_corpus(_require(values, "data", "eval"))
    utts = corpus.split(values["split"])
    report, hyps = evaluate_split(model, utts, corpus.vocab, beam=values["beam"])
    text = format_split_report(values["split"], report)
    print(text)
    if values["out"]:
        run = RunDir(values["out"], values, values["force"])
        _write_text(run.path / "hyps.tsv", _hyps_text(hyps.items(), corpus.vocab))
        _write_text(run.path / "report.txt", text + "\n")
        run.log(text.splitlines()[-1])
    return 0


def cmd_eval_ls(values):
    model = _load_model(_require(values, "model", "eval-ls"))
    corpus = load_corpus(_require(values, "data", "eval-ls"))
    results = eval_language_separation(model, corpus.split(values["split"]), corpus.vocab)
    text = format_separation_report(results)
    print(text)
    if values["out"]:
        run = RunDir(values["out"], values, values["force"])
        _write_text(run.path / "report.txt", text + "\n")
        run.log(text.splitlines()[-1])
    return 0


def cmd_dump_posteriors(values):
    model = _load_model(_require(values, "model", "dump-posteriors"))
    corpus = load_corpus(_require(values, "data", "dump-posteriors"))
    uid = _require(values, "utt", "dump-posteriors")
    out = _require(values, "out", "dump-posteriors")
    for utts in corpus.splits.values():
        for utt in utts:
            if utt.uid == uid:
                dump_frame_posteriors(model, utt.features, out, corpus.vocab)
                print(f"wrote {out}")
                return 0
    raise CsrtError(f"utterance {uid!r} not found in corpus")


def cmd_gradcheck(values):
    worst = checks.loss_grad_sweep(trials=10, seed=values["seed"])
    worst["full-model"] = checks.full_model_grad_check()
    failed = False
    for name, err in sorted(worst.items()):
        ok = err < 1e-4
        failed = failed or not ok
        print(f"{name:<12} max-rel-err={err:.3e} {'ok' if ok else 'FAIL'}")
    if failed:
        raise CsrtError("gradient check exceeded 1e-4")
    return 0


def cmd_oracle_check(values):
    worst = checks.oracle_sweep(trials=values["trials"], seed=values["seed"])
    failed = False
    for name, err in sorted(worst.items()):
        ok = err < 1e-6
        failed = failed or not ok
        print(f"{name:<6} max-abs-diff={err:.3e} {'ok' if ok else 'FAIL'}")
    if failed:
        raise CsrtError("oracle equivalence exceeded 1e-6")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "decode": cmd_decode,
    "eval": cmd_eval,
    "eval-ls": cmd_eval_ls,
    "dump-posteriors": cmd_dump_posteriors,
    "gradcheck": cmd_gradcheck,
    "oracle-check": cmd_oracle_check,
}


def run(argv):
    parser = build_parser()
    try:
        if not argv:
            raise UsageError("no command given")
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("no command given")
        values = resolve_values(args, args.command)
        return _COMMANDS[args.command](values)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (CsrtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
