"""Command-line pipeline driver.

One process per command: corpus generation, the two training stages,
decoding, evaluation, the language-separation ablation, posterior dumps,
and the oracle/gradient self-checks. Every flag is a config-file key (see
config.REGISTRY); explicit flags override the file, which overrides the
defaults. COMMANDS maps a command to its handler and keys; one that builds
a settings dataclass takes the keys of its fields, read off the class.
Commands that write an output directory refuse a non-empty one up front
unless --force is given, and create it, with the resolved config and an
append-only plain-text log, only at their first output, so a command that
fails on its inputs leaves nothing behind.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .model import Architecture, Model, load_checkpoint, save_checkpoint, write_atomic
from .training import TrainingConfig, arch_for, finetune, pretrain

CHECKPOINT_NAME = "checkpoint.csrt"


def _keys(settings, leave_out=()):
    """The config keys of a settings dataclass's fields, in field order, less `leave_out`."""
    keys = (config.key_of(f.name) for f in dataclasses.fields(settings))
    return tuple(k for k in keys if k in config.REGISTRY and k not in leave_out)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="csrt", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command")
    for command, (_, keys) in COMMANDS.items():
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
    for key in COMMANDS[command][1]:
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
    """The --model checkpoint's Model and the --data corpus, both required and checked to
    agree on each language's units and the feature width."""
    path = _checkpoint_path(_require(values, "model", command))
    ck = load_checkpoint(path)
    model = Model(ck.architecture(), params=ck.model_params())
    corpus = load_corpus(_require(values, "data", command))
    arch, vocab = model.arch, corpus.vocab
    if (arch.n_m, arch.n_e, arch.input_dim) != (vocab.n_m, vocab.n_e, corpus.feature_dim):
        raise CsrtError(f"checkpoint {path} (units-m {arch.n_m}, units-e {arch.n_e}, feature "
                        f"width {arch.input_dim}) does not fit corpus {values['data']} (units-m "
                        f"{vocab.n_m}, units-e {vocab.n_e}, feature width {corpus.feature_dim})")
    return model, corpus


def cmd_gen_data(values):
    out = _require(values, "out", "gen-data")
    spec = CorpusSpec.from_values(values)
    run = RunDir(out, values, values["force"])
    corpus = gen_corpus(spec, out)  # config.txt follows at the first log line
    for split, utts in sorted(corpus.splits.items()):
        run.log(f"split={split} utterances={len(utts)}")


def cmd_train(command, values):
    """Run `command`, pretrain or finetune, into --out. --resume continues the --init run;
    otherwise pretrain starts from the seed, and finetune from --init or, without it, the seed."""
    out = _require(values, "out", command)
    if values["resume"]:
        _require(values, "init", f"{command} --resume")
    elif values["init"] and command == "pretrain":
        raise UsageError("pretrain --init needs --resume (pretraining starts from scratch)")
    corpus = load_corpus(_require(values, "data", command))
    arch = arch_for(values["variant"], values, corpus.vocab, corpus.feature_dim)
    init = load_checkpoint(_checkpoint_path(values["init"])) if values["init"] else None
    tcfg = TrainingConfig.from_values(values)
    run = RunDir(out, values, values["force"])
    if command == "pretrain":
        ck = pretrain(corpus.split("train-mono-m"), corpus.split("train-mono-e"), tcfg, arch,
                      dev_m=corpus.split("dev-mono-m"), dev_e=corpus.split("dev-mono-e"),
                      vocab=corpus.vocab, log=run.log, resume_from=init)
    else:
        corpora = {part: corpus.split(f"train-{part}") for part in ("cs", "mono-m", "mono-e")}
        ck = finetune(corpora, init, tcfg, arch, dev=corpus.split("dev-cs"), vocab=corpus.vocab,
                      log=run.log, resume=values["resume"])
    save_checkpoint(run.path / CHECKPOINT_NAME, ck)
    run.log(f"saved {run.path / CHECKPOINT_NAME}")


def _write_text(path, text):
    write_atomic(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _hyps_text(hyps, vocab):
    """hyps.tsv text: per (uid, hyp) pair, a line of the id, a tab and the space-joined
    surfaces; no pairs, no text."""
    return "".join(uid + "\t" + " ".join(map(vocab.surface, hyp)) + "\n" for uid, hyp in hyps)


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


def _report(run, text, files=()):
    """Print a report; with a run directory, also write `files` and report.txt there and
    log the report's last line, which prints that line."""
    if run is None:
        print(text)
        return
    last = text.splitlines()[-1]
    print(text.removesuffix(last), end="")
    for name, content in (*files, ("report.txt", text + "\n")):
        _write_text(run.path / name, content)
    run.log(last)


def cmd_eval(values):
    model, corpus = _model_and_corpus(values, "eval")
    utts = corpus.split(values["split"])
    run = RunDir(values["out"], values, values["force"]) if values["out"] else None
    report, hyps = evaluate_split(model, utts, corpus.vocab, beam=values["beam"])
    _report(run, format_split_report(values["split"], report),
            [("hyps.tsv", _hyps_text(hyps.items(), corpus.vocab))])


def cmd_eval_ls(values):
    model, corpus = _model_and_corpus(values, "eval-ls")
    utts = corpus.split(values["split"])
    run = RunDir(values["out"], values, values["force"]) if values["out"] else None
    _report(run, format_separation_report(eval_language_separation(model, utts, corpus.vocab)))


def cmd_dump_posteriors(values):
    model, corpus = _model_and_corpus(values, "dump-posteriors")
    uid = _require(values, "utt", "dump-posteriors")
    out = _require(values, "out", "dump-posteriors")
    utt = next((u for utts in corpus.splits.values() for u in utts if u.uid == uid), None)
    if utt is None:
        raise CsrtError(f"utterance {uid!r} not found in corpus")
    dump_frame_posteriors(model, utt.features, out, corpus.vocab)
    print(f"wrote {out}")


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


def cmd_oracle_check(values):
    worst = checks.oracle_sweep(trials=values["trials"], seed=values["seed"])
    _check_table(worst, 6, "max-abs-diff", 1e-6, "oracle equivalence exceeded 1e-6")


_TRAINING = ("out", "force", "data", "init", "resume") + _keys(Architecture)
_FINETUNE_ONLY = ("lambda", "mono-mix-ratio")

COMMANDS = {
    "gen-data": (cmd_gen_data, ("out", "force") + _keys(CorpusSpec)),
    "pretrain": (functools.partial(cmd_train, "pretrain"),
                 _TRAINING + _keys(TrainingConfig, _FINETUNE_ONLY)),
    "finetune": (functools.partial(cmd_train, "finetune"), _TRAINING + _keys(TrainingConfig)),
    "decode": (cmd_decode, ("out", "force", "data", "model", "split", "beam")),
    "eval": (cmd_eval, ("out", "force", "data", "model", "split", "beam")),
    "eval-ls": (cmd_eval_ls, ("out", "force", "data", "model", "split")),
    "dump-posteriors": (cmd_dump_posteriors, ("out", "data", "model", "utt")),
    "gradcheck": (cmd_gradcheck, ("seed",)),
    "oracle-check": (cmd_oracle_check, ("seed", "trials")),
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("no command given")
        COMMANDS[args.command][0](resolve_values(args, args.command))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (CsrtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory while running {args.command}", file=sys.stderr)
        return 2


def main():
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
