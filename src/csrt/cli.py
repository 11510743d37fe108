"""Command-line pipeline driver.

One process per command: corpus generation, the two training stages,
decoding, evaluation, the language-separation ablation, posterior dumps,
and the oracle/gradient self-checks. Every flag mirrors a config-file key
(see config.REGISTRY); explicit flags override the file, which overrides
the defaults. Commands that write an output directory refuse a non-empty
one up front unless --force is given, and create it, with the resolved
config and an append-only plain-text log, only at their first output, so
a command that fails on its inputs leaves nothing behind.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
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
    "decode": ("out", "force", "data", "model", "split", "beam"),
    "eval": ("out", "force", "data", "model", "split", "beam"),
    "eval-ls": ("out", "force", "data", "model", "split"),
    "dump-posteriors": ("out", "data", "model", "utt"),
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
    """Output directory with the resolved config and an append-only log; a non-empty one is
    refused up front, but it and config.txt are made at the first `log` or use of `path`."""

    def __init__(self, path, values, force):
        self._path = Path(path)
        if self._path.exists() and any(self._path.iterdir()) and not force:
            raise CsrtError(f"output directory {self._path} is not empty; pass --force to reuse")
        self._config = config.serialize_config(values)

    @functools.cached_property
    def path(self):
        self._path.mkdir(parents=True, exist_ok=True)
        (self._path / "config.txt").write_text(self._config, encoding="utf-8")
        return self._path

    def log(self, line):
        with open(self.path / "log.txt", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        print(line)


def _require(values, key, command):
    if not values[key]:
        raise UsageError(f"{command} requires --{key}")
    return values[key]


def _checkpoint_path(path):
    p = Path(path)
    return p / CHECKPOINT_NAME if p.is_dir() else p


def _model_and_corpus(values, command):
    """The --model checkpoint's Model and the --data corpus, both required."""
    ck = load_checkpoint(_checkpoint_path(_require(values, "model", command)))
    model = Model(ck.architecture(), params=ck.model_params())
    return model, load_corpus(_require(values, "data", command))


def _corpus_and_arch(values, command):
    corpus = load_corpus(_require(values, "data", command))
    any_split = next(iter(corpus.splits.values()))
    input_dim = any_split[0].features.shape[1]
    arch = arch_for(values["variant"], values, corpus.vocab, input_dim)
    return corpus, arch


def cmd_gen_data(values):
    out = _require(values, "out", "gen-data")
    spec = CorpusSpec.from_values(values)
    run = RunDir(out, values, values["force"])
    corpus = gen_corpus(spec, run.path)
    for split, utts in sorted(corpus.splits.items()):
        run.log(f"split={split} utterances={len(utts)}")
    return 0


def cmd_pretrain(values):
    out = _require(values, "out", "pretrain")
    if values["init"] and not values["resume"]:
        raise UsageError("pretrain --init needs --resume (pretraining starts from scratch)")
    corpus, arch = _corpus_and_arch(values, "pretrain")
    tcfg = TrainingConfig.from_values(values)
    names = ("train-mono-m", "train-mono-e", "dev-mono-m", "dev-mono-e")
    train_m, train_e, dev_m, dev_e = map(corpus.split, names)
    resume_from = None
    if values["resume"]:
        resume_from = load_checkpoint(_checkpoint_path(_require(values, "init", "pretrain")))
    run = RunDir(out, values, values["force"])
    ck = pretrain(train_m, train_e, tcfg, arch, dev_m=dev_m, dev_e=dev_e, vocab=corpus.vocab,
                  log=run.log, resume_from=resume_from)
    save_checkpoint(run.path / CHECKPOINT_NAME, ck)
    run.log(f"saved {run.path / CHECKPOINT_NAME}")
    return 0


def cmd_finetune(values):
    out = _require(values, "out", "finetune")
    corpus, arch = _corpus_and_arch(values, "finetune")
    init = load_checkpoint(_checkpoint_path(_require(values, "init", "finetune")))
    tcfg = TrainingConfig.from_values(values)
    corpora = {part: corpus.split(f"train-{part}") for part in ("cs", "mono-m", "mono-e")}
    dev = corpus.split("dev-cs")
    run = RunDir(out, values, values["force"])
    ck = finetune(corpora, init, tcfg, arch, dev=dev, vocab=corpus.vocab, log=run.log,
                  resume=values["resume"])
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
    model, corpus = _model_and_corpus(values, "decode")
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


def _report(run, text, files=()):
    """Print a report; with a run directory, also write `files` and report.txt there."""
    print(text)
    if run is not None:
        for name, content in (*files, ("report.txt", text + "\n")):
            _write_text(run.path / name, content)
        run.log(text.splitlines()[-1])


def cmd_eval(values):
    model, corpus = _model_and_corpus(values, "eval")
    utts = corpus.split(values["split"])
    run = RunDir(values["out"], values, values["force"]) if values["out"] else None
    report, hyps = evaluate_split(model, utts, corpus.vocab, beam=values["beam"])
    _report(run, format_split_report(values["split"], report),
            [("hyps.tsv", _hyps_text(hyps.items(), corpus.vocab))])
    return 0


def cmd_eval_ls(values):
    model, corpus = _model_and_corpus(values, "eval-ls")
    utts = corpus.split(values["split"])
    run = RunDir(values["out"], values, values["force"]) if values["out"] else None
    _report(run, format_separation_report(eval_language_separation(model, utts, corpus.vocab)))
    return 0


def cmd_dump_posteriors(values):
    model, corpus = _model_and_corpus(values, "dump-posteriors")
    uid = _require(values, "utt", "dump-posteriors")
    out = _require(values, "out", "dump-posteriors")
    for utts in corpus.splits.values():
        for utt in utts:
            if utt.uid == uid:
                dump_frame_posteriors(model, utt.features, out, corpus.vocab)
                print(f"wrote {out}")
                return 0
    raise CsrtError(f"utterance {uid!r} not found in corpus")


def _check_table(worst, width, column, bound, failure):
    """Print an ok/FAIL line per check, by name; raise `failure` if any error reached `bound`."""
    for name, err in sorted(worst.items()):
        print(f"{name:<{width}} {column}={err:.3e} {'ok' if err < bound else 'FAIL'}")
    if not all(err < bound for err in worst.values()):
        raise CsrtError(failure)


def cmd_gradcheck(values):
    worst = checks.loss_grad_sweep(trials=10, seed=values["seed"])
    worst["full-model"] = checks.full_model_grad_check()
    _check_table(worst, 12, "max-rel-err", 1e-4, "gradient check exceeded 1e-4")
    return 0


def cmd_oracle_check(values):
    worst = checks.oracle_sweep(trials=values["trials"], seed=values["seed"])
    _check_table(worst, 6, "max-abs-diff", 1e-6, "oracle equivalence exceeded 1e-6")
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
