import dataclasses
import os
import re
import shutil

import numpy as np
import pytest

from conftest import edit_fields
from csrt import cli, config, training
from csrt.cli import run
from csrt.data import SPLITS, CorpusSpec, load_corpus, read_features, write_features
from csrt.errors import CsrtError
from csrt.model import (
    Architecture,
    Checkpoint,
    Model,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from csrt.training import TrainingConfig


def gen_args(out, extra=()):
    return [
        "gen-data",
        "--out",
        str(out),
        "--train-count",
        "12",
        "--dev-count",
        "3",
        "--test-count",
        "4",
        "--seed",
        "21",
    ] + list(extra)


class TestUsage:
    def test_no_arguments_usage_exit_1(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["pretrain"]) == 1
        assert "requires" in capsys.readouterr().err

    def test_bad_option_value(self, tmp_path):
        assert run(gen_args(tmp_path / "d", ["--noise-sigma", "tiny"])) == 1

    def test_beam_below_one_is_usage_error(self, tmp_path, capsys):
        code = run(["eval", "--model", str(tmp_path / "m"), "--data", str(tmp_path), "--beam", "0"])
        assert code == 1
        assert "usage error: bad value for 'beam'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["gen-data", "--seed", "-1", "--out", "{tmp}/d"], "seed"),
            (["pretrain", "--seed", "-1", "--data", "{tmp}", "--out", "{tmp}/p"], "seed"),
            (["gradcheck", "--seed", "-1"], "seed"),
            (["gen-data", "--cs-spans-max", "0", "--out", "{tmp}/d"], "cs-spans-max"),
            (["pretrain", "--embed-dim", "-1", "--data", "{tmp}", "--out", "{tmp}/p"], "embed-dim"),
            (["pretrain", "--hidden-dim", "0", "--data", "{tmp}", "--out", "{tmp}/p"], "hidden-dim"),
            (["oracle-check", "--trials", "0"], "trials"),
            (["oracle-check", "--trials", "-3"], "trials"),
        ],
        ids=["gen-data-seed", "pretrain-seed", "gradcheck-seed", "cs-spans-max", "embed-dim",
             "hidden-dim", "trials-zero", "trials-negative"],
    )
    def test_out_of_range_integer_flag_is_usage_error(self, tmp_path, capsys, argv, key):
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
        assert f"usage error: bad value for '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["gen-data", "--noise-sigma", "nan", "--out", "{tmp}/d"], "noise-sigma"),
            (["pretrain", "--grad-clip", "nan", "--data", "{tmp}", "--out", "{tmp}/p"], "grad-clip"),
            (["pretrain", "--beta1", "nan", "--data", "{tmp}", "--out", "{tmp}/p"], "beta1"),
            (["pretrain", "--moment-eps", "0", "--data", "{tmp}", "--out", "{tmp}/p"], "moment-eps"),
            (["pretrain", "--beta1", "1", "--data", "{tmp}", "--out", "{tmp}/p"], "beta1"),
        ],
        ids=["noise-sigma-nan", "grad-clip-nan", "beta1-nan", "moment-eps-zero", "beta1-one"],
    )
    def test_bad_float_flag_is_usage_error(self, tmp_path, capsys, argv, key):
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
        assert f"usage error: bad value for '{key}'" in capsys.readouterr().err

    def test_pretrain_init_without_resume_is_usage_error(self, workdir, tmp_path, capsys):
        _, data = workdir
        code = run(["pretrain", "--init", str(tmp_path / "nonexistent"), "--data", str(data),
                    "--out", str(tmp_path / "p"), "--epochs", "1", "--hidden-dim", "8"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--init" in err and "--resume" in err
        assert not (tmp_path / "p").exists()


class TestFlagTable:
    """A command's flags are the keys of the settings dataclasses it builds."""

    def test_commands_take_the_keys_of_their_settings(self):
        taken = {command: set(keys) for command, (_, keys) in cli.COMMANDS.items()}

        def settings(cls):
            keys = {config.key_of(f.name) for f in dataclasses.fields(cls)}
            return keys & config.REGISTRY.keys()

        assert settings(CorpusSpec) <= taken["gen-data"]
        for command in ("pretrain", "finetune"):
            assert settings(Architecture) <= taken[command]
        training_keys = settings(TrainingConfig)
        assert training_keys <= taken["finetune"]
        finetune_only = {"lambda", "mono-mix-ratio"}
        assert training_keys & taken["pretrain"] == training_keys - finetune_only
        assert set().union(*taken.values()) == config.REGISTRY.keys()

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_help_lists_exactly_the_command_keys(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            run([command, "--help"])
        assert exit_.value.code == 0
        flags = set(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
        assert flags == set(cli.COMMANDS[command][1]) | {"config", "help"}


class TestRuntimeErrors:
    def test_missing_corpus_exit_2(self, tmp_path, capsys):
        code = run(
            ["pretrain", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "ck")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_refuses_nonempty_out(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run(gen_args(out)) == 2
        assert "--force" in capsys.readouterr().err
        assert run(gen_args(out, ["--force"])) == 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-e2e")
    data = root / "data"
    assert run(gen_args(data)) == 0
    fast = ["--epochs", "1", "--hidden-dim", "8", "--joint-dim", "8", "--decoder-dim", "8"]
    assert run(["pretrain", "--data", str(data), "--out", str(root / "pre")] + fast) == 0
    assert (
        run(
            [
                "finetune",
                "--variant",
                "conditional-ls",
                "--init",
                str(root / "pre"),
                "--data",
                str(data),
                "--out",
                str(root / "ft"),
            ]
            + fast
        )
        == 0
    )
    return root, data


class TestPipeline:
    def test_run_dirs_have_config_and_log(self, workdir):
        root, _ = workdir
        for d in ("pre", "ft"):
            cfg = config.parse_config_text((root / d / "config.txt").read_text())
            assert cfg["epochs"] == 1
            assert (root / d / "log.txt").read_text().strip()
            assert (root / d / "checkpoint.csrt").exists()

    def test_eval_prints_metric_row(self, workdir, capsys):
        root, data = workdir
        code = run(
            [
                "eval",
                "--model",
                str(root / "ft"),
                "--data",
                str(data),
                "--split",
                "test-cs",
                "--beam",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MER" in out and "CER" in out and "WER" in out and "test-cs" in out

    def test_decode_writes_hypotheses(self, workdir):
        root, data = workdir
        out = root / "hyp"
        code = run(
            [
                "decode",
                "--model",
                str(root / "ft"),
                "--data",
                str(data),
                "--split",
                "test-cs",
                "--beam",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "hyps.tsv").read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            uid, tab, rest = line.partition("\t")
            assert tab and uid.startswith("test-cs-")

    def test_failed_hyps_write_keeps_existing_file(self, workdir, monkeypatch, capsys):
        root, data = workdir
        out = root / "hyp-kept"
        out.mkdir()
        (out / "hyps.tsv").write_bytes(b"old\thyps\n")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        code = run(["decode", "--model", str(root / "ft"), "--data", str(data),
                    "--split", "test-cs", "--beam", "1", "--out", str(out), "--force"])
        assert code == 2
        assert "replace failed" in capsys.readouterr().err
        assert (out / "hyps.tsv").read_bytes() == b"old\thyps\n"
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "hyps.tsv", "log.txt"]

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_empty_split_writes_an_empty_hyps_file(self, workdir, tmp_path, command):
        root, data = workdir
        shutil.copytree(data, tmp_path / "data")
        (tmp_path / "data" / "test-cs" / "utts.tsv").write_text("")
        write_features(tmp_path / "data" / "test-cs" / "feats.csft", np.zeros((0, 8)))
        code = run([command, "--model", str(root / "ft"), "--data", str(tmp_path / "data"),
                    "--split", "test-cs", "--beam", "1", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "hyps.tsv").read_bytes() == b""

    @pytest.mark.parametrize("command, evaluator",
                             [("eval", "evaluate_split"), ("eval-ls", "eval_language_separation")])
    def test_eval_refuses_nonempty_out_before_decoding(self, workdir, tmp_path, monkeypatch,
                                                       capsys, command, evaluator):
        root, data = workdir
        out = tmp_path / "busy"
        out.mkdir()
        (out / "junk.txt").write_text("x")

        def never(*args, **kwargs):
            raise AssertionError(f"{evaluator} ran before the output directory was checked")

        monkeypatch.setattr(cli, evaluator, never)
        code = run([command, "--model", str(root / "ft"), "--data", str(data),
                    "--split", "dev-cs", "--out", str(out)])
        assert code == 2
        assert "--force" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["junk.txt"]

    @pytest.mark.parametrize("command, extra", [("eval", ["--beam", "1"]), ("eval-ls", [])])
    def test_stdout_is_the_report_file(self, workdir, tmp_path, capsys, command, extra):
        root, data = workdir
        out = tmp_path / "report"
        code = run([command, "--model", str(root / "ft"), "--data", str(data), "--split", "dev-cs",
                    "--out", str(out)] + extra)
        assert code == 0
        report = (out / "report.txt").read_text()
        assert capsys.readouterr().out == report
        assert (out / "log.txt").read_text() == report.splitlines()[-1] + "\n"

    def test_eval_ls_prints_table(self, workdir, capsys):
        root, data = workdir
        code = run(
            ["eval-ls", "--model", str(root / "ft"), "--data", str(data), "--split", "dev-cs"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sub-net" in out and "INS" in out

    def test_dump_posteriors(self, workdir, capsys):
        root, data = workdir
        corpus_uid = "dev-cs-00000"
        target = root / "post.csv"
        code = run(
            [
                "dump-posteriors",
                "--model",
                str(root / "ft"),
                "--data",
                str(data),
                "--utt",
                corpus_uid,
                "--out",
                str(target),
            ]
        )
        assert code == 0
        assert target.read_text().startswith("frame,")

    def test_dump_unknown_utterance(self, workdir):
        root, data = workdir
        code = run(
            [
                "dump-posteriors",
                "--model",
                str(root / "ft"),
                "--data",
                str(data),
                "--utt",
                "missing-id",
                "--out",
                str(root / "x.csv"),
            ]
        )
        assert code == 2

    def test_identical_config_identical_artifacts(self, workdir, tmp_path):
        root, data = workdir
        fast = ["--epochs", "1", "--hidden-dim", "8", "--joint-dim", "8", "--decoder-dim", "8"]
        out2 = tmp_path / "pre2"
        assert run(["pretrain", "--data", str(data), "--out", str(out2)] + fast) == 0
        a = load_checkpoint(root / "pre" / "checkpoint.csrt")
        b = load_checkpoint(out2 / "checkpoint.csrt")
        assert a.fingerprint == b.fingerprint
        assert all(a.blocks[k].tobytes() == b.blocks[k].tobytes() for k in a.blocks)

    def test_config_file_layering(self, workdir, tmp_path):
        _, data = workdir
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train-count = 5\nseed = 21  # comment\n")
        out = tmp_path / "d2"
        assert run(["gen-data", "--config", str(cfg), "--out", str(out), "--dev-count", "2",
                    "--test-count", "2"]) == 0
        from csrt.data import load_corpus

        corpus = load_corpus(out)
        assert len(corpus.split("train-cs")) == 5
        assert len(corpus.split("dev-mono-m")) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not-a-key = 3\n")
        assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_config_beam_below_one_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "beam.cfg"
        cfg.write_text("beam = 0\n")
        code = run(["eval", "--config", str(cfg), "--model", str(tmp_path / "m"),
                    "--data", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "beam.cfg:1: bad value for 'beam'" in err

    def test_config_out_of_range_integer_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "dims.cfg"
        cfg.write_text("seed = 3\nhidden-dim = 0\n")
        code = run(["pretrain", "--config", str(cfg), "--data", str(tmp_path),
                    "--out", str(tmp_path / "p")])
        assert code == 2
        assert "dims.cfg:2: bad value for 'hidden-dim'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["gen-data", "--out", "{tmp}/d"], "noise-sigma = nan"),
            (["pretrain", "--data", "{tmp}", "--out", "{tmp}/p"], "grad-clip = nan"),
            (["pretrain", "--data", "{tmp}", "--out", "{tmp}/p"], "beta1 = nan"),
            (["pretrain", "--data", "{tmp}", "--out", "{tmp}/p"], "moment-eps = 0"),
            (["pretrain", "--data", "{tmp}", "--out", "{tmp}/p"], "beta1 = 1"),
        ],
        ids=["noise-sigma-nan", "grad-clip-nan", "beta1-nan", "moment-eps-zero", "beta1-one"],
    )
    def test_config_bad_float_names_line(self, tmp_path, capsys, argv, line):
        cfg = tmp_path / "floats.cfg"
        cfg.write_text(f"seed = 3\n{line}\n")
        code = run([arg.format(tmp=tmp_path) for arg in argv] + ["--config", str(cfg)])
        assert code == 2
        key = line.split(" = ")[0]
        assert f"floats.cfg:2: bad value for '{key}'" in capsys.readouterr().err

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"seed = 3 # caf\xe9\n")
        assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err and "UTF-8" in err

    def test_checkpoint_block_not_in_architecture_exit_2(self, workdir, tmp_path, capsys):
        root, data = workdir
        ck = load_checkpoint(root / "ft" / "checkpoint.csrt")
        ck.blocks["joint.w_ouu"] = ck.blocks.pop("joint.w_out")
        save_checkpoint(tmp_path / "renamed.csrt", ck)
        for command in ("eval", "eval-ls"):
            code = run([command, "--model", str(tmp_path / "renamed.csrt"), "--data", str(data)])
            assert code == 2
            assert "'joint.w_out' is missing" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["eval", "decode"])
    def test_non_finite_checkpoint_block_exit_2(self, workdir, tmp_path, capsys, command):
        root, data = workdir
        ck = load_checkpoint(root / "ft" / "checkpoint.csrt")
        ck.blocks["joint.w_out"][0, 0] = np.nan
        save_checkpoint(tmp_path / "nan.csrt", ck)
        extra = ["--out", str(tmp_path / "hyp")] if command == "decode" else []
        code = run([command, "--model", str(tmp_path / "nan.csrt"), "--data", str(data)] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "nan.csrt: block 'joint.w_out' holds a non-finite value" in err
        assert not (tmp_path / "hyp").exists()


class TestRunDir:
    def test_nothing_created_before_the_first_output(self, tmp_path, capsys):
        out = tmp_path / "a" / "run"
        run_dir = cli.RunDir(out, config.defaults(), force=False)
        assert not (tmp_path / "a").exists()
        run_dir.log("first line")
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "log.txt"]
        assert config.parse_config_text((out / "config.txt").read_text()) == config.defaults()
        run_dir.log("second line")
        assert (out / "log.txt").read_text() == "first line\nsecond line\n"
        assert capsys.readouterr().out == "first line\nsecond line\n"

    def test_first_use_of_path_creates_the_directory(self, tmp_path):
        run_dir = cli.RunDir(tmp_path / "run", config.defaults(), force=False)
        assert not (tmp_path / "run").exists()
        assert (run_dir.path / "out.txt").parent == tmp_path / "run"
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["config.txt"]

    def test_nonempty_directory_refused_when_made(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        with pytest.raises(CsrtError, match="not empty; pass --force"):
            cli.RunDir(out, config.defaults(), force=False)
        run_dir = cli.RunDir(out, config.defaults(), force=True)
        assert sorted(p.name for p in out.iterdir()) == ["junk.txt"]
        run_dir.log("x")
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "junk.txt", "log.txt"]


def _write_corpus_fault(root, fault):
    """Write one fault into the corpus at `root`; return the message loading it must give."""
    if fault == "span-language":
        utts = root / "test-cs" / "utts.tsv"
        first = utts.read_text().splitlines()[0].split("\t")[2].split()[0]
        edit_fields(utts, 0, lambda f: f[:2] + [f[2].replace(first, first[:-1] + "X", 1)])
        return f"{utts}:1: malformed span '{first[:-1]}X' (expected start:end:M|E)"
    if fault == "zero-width-features":  # every file agrees on the width, and it is 0
        for path in root.rglob("*.csft"):
            write_features(path, np.zeros((len(read_features(path)), 0)))
        return f"{root / 'train-mono-m' / 'feats.csft'}: zero features per frame"
    if fault == "duplicate-surface":
        vocab = root / "vocab.tsv"
        lines = vocab.read_text().splitlines()
        assert lines[2] == "2\tm2\tM"
        lines[2] = "2\tm1\tM"
        vocab.write_text("\n".join(lines) + "\n")
        return f"{vocab}:3: duplicate vocabulary surface 'm1'"
    utts = root / "train-mono-m" / "utts.tsv"  # unknown-surface
    edit_fields(utts, 1, lambda f: [f[0], f[1] + " zz", f[2]])
    return f"{utts}:2: unknown vocabulary surface 'zz'"


class TestCheckBeforeWrite:
    """A bad value fails before any output directory is created."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--units-per-language", "0"],
            ["--train-count", "-3"],
            ["--cs-matrix-fraction", "1.5"],
        ],
        ids=["units-per-language", "train-count", "cs-matrix-fraction"],
    )
    def test_gen_data_bad_flag_exit_1(self, tmp_path, capsys, extra):
        assert run(gen_args(tmp_path / "d", extra)) == 1
        assert f"usage error: bad value for '{extra[0][2:]}'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_gen_data_single_unit_utterances_refused(self, tmp_path, capsys):
        # A code-switched utterance needs a unit of each language, so utt-units-min starts at 2.
        assert run(gen_args(tmp_path / "d", ["--utt-units-min", "1"])) == 1
        assert "usage error: bad value for 'utt-units-min': must be >= 2, got 1" in (
            capsys.readouterr().err)
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("utt-units-min = 1\n", encoding="utf-8")
        assert run(gen_args(tmp_path / "d", ["--config", str(cfg)])) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}:1: bad value for 'utt-units-min': must be >= 2, got 1"]
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("extra", [["--noise-sigma", "1e39"],
                                       ["--cross-lingual-offset", "1e308"]])
    def test_gen_data_frames_beyond_float32_exit_2(self, tmp_path, capsys, extra):
        assert run(gen_args(tmp_path / "d", extra)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: generated frames reach ")
        assert not (tmp_path / "d").exists()

    def test_gen_data_empty_frame_range_exit_2(self, tmp_path, capsys):
        assert run(gen_args(tmp_path / "d", ["--frames-min", "5", "--frames-max", "2"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "frames-min" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "extra",
        [["--batch-size", "0"], ["--epochs", "-1"], ["--warmup-steps", "-5"]],
        ids=["batch-size", "epochs", "warmup-steps"],
    )
    def test_pretrain_bad_flag_exit_1(self, workdir, tmp_path, capsys, extra):
        _, data = workdir
        fast = ["--epochs", "1", "--hidden-dim", "8"]
        code = run(["pretrain", "--data", str(data), "--out", str(tmp_path / "p")] + fast + extra)
        assert code == 1
        assert f"usage error: bad value for '{extra[0][2:]}'" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize(
        "extra", [["--lambda", "2"], ["--mono-mix-ratio", "-1"]], ids=["lambda", "mono-mix-ratio"]
    )
    def test_finetune_bad_flag_exit_1(self, workdir, tmp_path, capsys, extra):
        root, data = workdir
        fast = ["--epochs", "1", "--hidden-dim", "8", "--joint-dim", "8", "--decoder-dim", "8"]
        code = run(["finetune", "--init", str(root / "pre"), "--data", str(data),
                    "--out", str(tmp_path / "f")] + fast + extra)
        assert code == 1
        assert f"usage error: bad value for '{extra[0][2:]}'" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_config_batch_size_names_line(self, workdir, tmp_path, capsys):
        _, data = workdir
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 1\nbatch-size = 0\n")
        code = run(["pretrain", "--config", str(cfg), "--data", str(data),
                    "--out", str(tmp_path / "p")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "train.cfg:2: bad value for 'batch-size'" in err
        assert not (tmp_path / "p").exists()

    def test_repeated_config_key_names_line(self, workdir, tmp_path, capsys):
        _, data = workdir
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 0\nepochs = 1\n")
        code = run(["pretrain", "--config", str(cfg), "--data", str(data),
                    "--out", str(tmp_path / "p"), "--hidden-dim", "8"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: repeated key 'epochs'\n"
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("fault", ["span-language", "zero-width-features", "duplicate-surface",
                                       "unknown-surface"])
    def test_malformed_corpus_exit_2_naming_the_place(self, workdir, tmp_path, capsys, fault):
        _, data = workdir
        root = tmp_path / "data"
        shutil.copytree(data, root)
        expected = _write_corpus_fault(root, fault)
        code = run(["pretrain", "--data", str(root), "--out", str(tmp_path / "o"),
                    "--epochs", "1", "--hidden-dim", "8"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["finetune", "--variant", "three-encoder", "--init", "{root}/pre"], "fingerprint"),
            (["finetune", "--resume", "--init", "{root}/pre"], "no resumable finetune state"),
            (["pretrain", "--resume", "--init", "{root}/pre", "--encoder-mixing", "recurrent"],
             "fingerprint"),
            (["pretrain", "--resume", "--init", "{root}/ft"], "no resumable pretrain state"),
        ],
        ids=["finetune-fingerprint", "finetune-no-state", "pretrain-fingerprint",
             "pretrain-no-state"],
    )
    def test_unusable_start_checkpoint_exit_2(self, workdir, tmp_path, capsys, argv, message):
        root, data = workdir
        fast = ["--epochs", "1", "--hidden-dim", "8", "--joint-dim", "8", "--decoder-dim", "8"]
        argv = [arg.format(root=root) for arg in argv]
        code = run(argv + fast + ["--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_non_finite_init_checkpoint_exit_2(self, workdir, tmp_path, capsys):
        root, data = workdir
        ck = load_checkpoint(root / "pre" / "checkpoint.csrt")
        ck.blocks["joint.w_out"][-1, -1] = np.nan
        save_checkpoint(tmp_path / "nan.csrt", ck)
        fast = ["--epochs", "1", "--hidden-dim", "8", "--joint-dim", "8", "--decoder-dim", "8"]
        code = run(["finetune", "--init", str(tmp_path / "nan.csrt"), "--data", str(data),
                    "--out", str(tmp_path / "o")] + fast)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "block 'joint.w_out' holds a non-finite value" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "block, value",
        [
            ("state.epoch", None),
            ("state.phase", np.array([0.0, 0.0])),
            ("state.phase", np.array(7.0)),
            ("state.phase", np.array(-2.0)),
            ("state.batch", np.array(-3.0)),
            ("state.batch", np.array(2.0)),
            ("state.epoch", np.array(0.5)),
        ],
        ids=["epoch-missing", "phase-not-scalar", "phase-7", "phase-negative", "batch-negative",
             "batch-mid-epoch", "epoch-fraction"],
    )
    def test_malformed_resume_state_exit_2(self, workdir, tmp_path, capsys, block, value):
        root, data = workdir
        ck = load_checkpoint(root / "pre" / "checkpoint.csrt")
        if value is None:
            del ck.blocks[block]
        else:
            ck.blocks[block] = value
        save_checkpoint(tmp_path / "bad.csrt", ck)
        fast = ["--epochs", "2", "--hidden-dim", "8", "--joint-dim", "8", "--decoder-dim", "8"]
        code = run(["pretrain", "--resume", "--init", str(tmp_path / "bad.csrt"), "--data",
                    str(data), "--out", str(tmp_path / "o")] + fast)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and f"'{block}'" in err
        assert not (tmp_path / "o").exists()

    def test_partial_moment_set_exit_2(self, workdir, tmp_path, capsys):
        root, data = workdir
        ck = load_checkpoint(root / "pre" / "checkpoint.csrt")
        layout = list(Model(ck.architecture(), params=ck.model_params()).params)
        dropped = [f"opt.m.{layout[i]}" for i in (-1, 3, 1)] + [
            k for k in ck.blocks if k.startswith("opt.v.")]
        assert len(dropped) == 3 + len(layout)
        save_checkpoint(tmp_path / "partial.csrt",
                        Checkpoint(ck.fingerprint, {k: v for k, v in ck.blocks.items()
                                                    if k not in dropped}))
        fast = ["--epochs", "2", "--hidden-dim", "8", "--joint-dim", "8", "--decoder-dim", "8"]
        code = run(["pretrain", "--resume", "--init", str(tmp_path / "partial.csrt"), "--data",
                    str(data), "--out", str(tmp_path / "o")] + fast)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: optimizer block 'opt.m.{layout[1]}' is missing: a kept moment "
                       "needs every parameter block"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("split", ["train-mono-m", "dev-mono-m"])
    def test_ctc_target_longer_than_its_frames_exit_2(self, workdir, tmp_path, capsys, split):
        _, data = workdir
        shutil.copytree(data, tmp_path / "data")
        utts = tmp_path / "data" / split / "utts.tsv"
        uid = utts.read_text().splitlines()[-1].partition("\t")[0]
        edit_fields(utts, -1, lambda f: [uid, " ".join(["m1", "m2"] * 30), f[2]])
        T = len(load_corpus(tmp_path / "data").split(split)[-1].features)
        assert T < 60
        code = run(["pretrain", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "o"),
                    "--epochs", "1", "--hidden-dim", "8", "--batch-size", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: utterance {uid}: ") and len(err.splitlines()) == 1
        assert "60 M labels" in err and f"it has {T}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["finetune", "pretrain"])
    def test_one_start_from_and_one_model_per_run(self, workdir, tmp_path, monkeypatch, command):
        root, data = workdir
        calls = {"start_from": 0, "Model": 0}
        start_from, model_init = training.start_from, Model.__init__

        def counted_start_from(*args, **kw):
            calls["start_from"] += 1
            return start_from(*args, **kw)

        def counted_init(self, *args, **kw):
            calls["Model"] += 1
            model_init(self, *args, **kw)

        monkeypatch.setattr(training, "start_from", counted_start_from)
        # Also count calls through a name bound in cli, should it import start_from again.
        monkeypatch.setattr(cli, "start_from", counted_start_from, raising=False)
        monkeypatch.setattr(Model, "__init__", counted_init)
        fast = ["--hidden-dim", "8", "--joint-dim", "8", "--decoder-dim", "8"]
        extra = ["--epochs", "0"] if command == "finetune" else ["--resume", "--epochs", "1"]
        code = run([command, "--init", str(root / "pre"), "--data", str(data),
                    "--out", str(tmp_path / "o")] + fast + extra)
        assert code == 0
        assert calls == {"start_from": 1, "Model": 1}


    @pytest.mark.parametrize(
        "argv",
        [
            ["decode", "--split", "test-cs", "--beam", "1", "--out", "{tmp}/x", "--seed", "3"],
            ["eval", "--beam", "1", "--seed", "3"],
            ["eval-ls", "--seed", "3"],
            ["dump-posteriors", "--utt", "dev-cs-00000", "--out", "{tmp}/x", "--seed", "3"],
            ["dump-posteriors", "--utt", "dev-cs-00000", "--out", "{tmp}/x", "--force"],
        ],
        ids=["decode-seed", "eval-seed", "eval-ls-seed", "dump-posteriors-seed",
             "dump-posteriors-force"],
    )
    def test_unread_flag_is_usage_error(self, workdir, tmp_path, capsys, argv):
        root, data = workdir
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code = run(argv + ["--model", str(root / "ft"), "--data", str(data)])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "emptied, message",
        [(("train-mono-m",), "pretrain requires training utterances in both"),
         (SPLITS, "has no utterances")],
        ids=["empty-first-split", "empty-corpus"],
    )
    def test_corpus_without_training_utterances_exit_2(self, workdir, tmp_path, capsys, emptied,
                                                       message):
        _, data = workdir
        shutil.copytree(data, tmp_path / "data")
        for split in emptied:
            (tmp_path / "data" / split / "utts.tsv").write_text("")
            write_features(tmp_path / "data" / split / "feats.csft", np.zeros((0, 8)))
        code = run(["pretrain", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "o"),
                    "--epochs", "1", "--hidden-dim", "8"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()


FAST = ["--hidden-dim", "8", "--joint-dim", "8", "--decoder-dim", "8"]


@pytest.fixture(scope="module")
def vanilla_run(workdir, tmp_path_factory):
    """A vanilla model fine-tuned from its seed, the one way to train that variant."""
    _, data = workdir
    out = tmp_path_factory.mktemp("vanilla") / "ft"
    assert run(["finetune", "--variant", "vanilla", "--data", str(data), "--out", str(out),
                "--epochs", "1"] + FAST) == 0
    return out


class TestSeededFinetune:
    def test_vanilla_run_holds_the_derived_width(self, workdir, vanilla_run):
        _, data = workdir
        config_text = (vanilla_run / "config.txt").read_text()
        assert "hidden-dim = 8\n" in config_text and "vanilla" in config_text
        corpus = load_corpus(data)
        values = {**config.defaults(), "hidden-dim": 8, "joint-dim": 8, "decoder-dim": 8}
        arch = training.arch_for("vanilla", values, corpus.vocab, corpus.feature_dim)
        assert arch.hidden_dim != 8
        assert load_checkpoint(vanilla_run / "checkpoint.csrt").architecture() == arch

    def test_eval_scores_a_vanilla_run(self, workdir, vanilla_run, capsys):
        _, data = workdir
        assert run(["eval", "--model", str(vanilla_run), "--data", str(data), "--beam", "1"]) == 0
        assert "test-cs" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["eval-ls"], "language-separation evaluation needs a variant with CTC heads"),
        (["dump-posteriors", "--utt", "dev-cs-00000", "--out", "{tmp}/p.csv"],
         "posterior dump needs a variant with CTC heads"),
    ], ids=["eval-ls", "dump-posteriors"])
    def test_ctc_head_commands_refuse_a_vanilla_run(self, workdir, vanilla_run, tmp_path,
                                                     capsys, argv, message):
        _, data = workdir
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert run(argv + ["--model", str(vanilla_run), "--data", str(data)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("variant", ["vanilla", "conditional-ls", "three-encoder"])
    def test_zero_epochs_without_init_write_the_seeded_parameters(self, workdir, tmp_path,
                                                                   variant):
        _, data = workdir
        assert run(["finetune", "--variant", variant, "--data", str(data), "--out",
                    str(tmp_path / "o"), "--epochs", "0", "--seed", "5"] + FAST) == 0
        ck = load_checkpoint(tmp_path / "o" / "checkpoint.csrt")
        want = init_params(ck.architecture(), 5)
        got = ck.model_params()
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[k], want[k]) for k in want)

    def test_resume_without_init_is_usage_error(self, workdir, tmp_path, capsys):
        _, data = workdir
        code = run(["finetune", "--resume", "--data", str(data), "--out", str(tmp_path / "o"),
                    "--epochs", "1"] + FAST)
        assert code == 1
        assert "usage error: finetune --resume requires --init" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pretrain_refuses_vanilla_and_names_the_way_forward(self, workdir, tmp_path,
                                                                 capsys):
        _, data = workdir
        code = run(["pretrain", "--variant", "vanilla", "--data", str(data), "--out",
                    str(tmp_path / "o"), "--epochs", "1"] + FAST)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "finetune without --init" in err[0]
        assert not (tmp_path / "o").exists()

    def test_old_vanilla_width_key_is_unknown(self, workdir, tmp_path, capsys):
        _, data = workdir
        cfg = tmp_path / "old.cfg"
        cfg.write_text("vanilla-hidden-dim = 48\n")
        code = run(["finetune", "--variant", "vanilla", "--config", str(cfg), "--data",
                    str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}:1: unknown config key 'vanilla-hidden-dim'"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["schedule = warmup-inverse-sqrt", "fine-tune-data = cs-only"])
    def test_removed_training_key_in_a_config_file_is_unknown(self, workdir, tmp_path, capsys,
                                                              line):
        # warmup-steps 0 is the constant schedule, mono-mix-ratio 0 code-switched-only data.
        _, data = workdir
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"epochs = 1\n{line}\n")
        code = run(["finetune", "--config", str(cfg), "--data", str(data),
                    "--out", str(tmp_path / "o")] + FAST)
        assert code == 2
        key = line.partition(" ")[0]
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}:2: unknown config key {key!r}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", [("pretrain", ["--schedule", "constant"]),
                                               ("finetune", ["--schedule", "constant"]),
                                               ("finetune", ["--fine-tune-data", "cs-only"])])
    def test_removed_training_flag_is_usage_error(self, workdir, tmp_path, capsys, command, flag):
        _, data = workdir
        code = run([command, "--data", str(data), "--out", str(tmp_path / "o"), "--epochs", "1"]
                   + FAST + flag)
        assert code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_out_of_memory_is_one_line(workdir, tmp_path, capsys, monkeypatch):
    def pretrain(*args, **kw):
        raise MemoryError

    monkeypatch.setattr(cli, "pretrain", pretrain)
    _, data = workdir
    code = run(["pretrain", "--data", str(data), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: out of memory while running pretrain"]
    assert not (tmp_path / "o").exists()


def _write_old_layout(root):
    """Rewrite the corpus at `root` in the layout before utts.tsv: manifest.tsv, and per split
    transcripts.tsv, spans.tsv and one feature file per utterance under feats/."""
    corpus = load_corpus(root)
    manifest = []
    for split, utts in corpus.splits.items():
        (root / split / "feats").mkdir()
        for utt in utts:
            write_features(root / split / "feats" / f"{utt.uid}.csft", utt.features)
        (root / split / "transcripts.tsv").write_text("".join(
            f"{u.uid}\t{' '.join(map(corpus.vocab.surface, u.labels))}\n" for u in utts))
        (root / split / "spans.tsv").write_text("".join(
            f"{u.uid}\t{' '.join(f'{a}:{b}:{lang}' for a, b, lang in u.spans)}\n" for u in utts))
        (root / split / "utts.tsv").unlink()
        (root / split / "feats.csft").unlink()
        manifest.append(f"{split}\t{split}/transcripts.tsv\t{split}/feats\t{split}/spans.tsv\n")
    (root / "manifest.tsv").write_text("".join(manifest))


def test_old_layout_refused_in_one_line_and_regenerated_from_its_config(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    assert run(gen_args(old, ["--cs-spans-max", "3"])) == 0
    _write_old_layout(old)
    capsys.readouterr()
    code = run(["pretrain", "--data", str(old), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and not (tmp_path / "o").exists()
    assert err[0].startswith(f"error: cannot read {old / 'train-mono-m' / 'utts.tsv'}: ")
    assert run(["gen-data", "--config", str(old / "config.txt"), "--out", str(new)]) == 0
    regenerated = load_corpus(new)
    for line in (old / "manifest.tsv").read_text().splitlines():
        split, transcripts, feats, spans = line.split("\t")
        rows = zip((old / transcripts).read_text().splitlines(),
                   (old / spans).read_text().splitlines(), strict=True)
        for utt, (text, span_line) in zip(regenerated.split(split), rows, strict=True):
            assert f"{utt.uid}\t{' '.join(map(regenerated.vocab.surface, utt.labels))}" == text
            assert f"{utt.uid}\t{' '.join(f'{a}:{b}:{m}' for a, b, m in utt.spans)}" == span_line
            assert utt.features.tobytes() == read_features(old / feats / f"{utt.uid}.csft").tobytes()


@pytest.fixture(scope="module")
def mismatched(workdir, tmp_path_factory):
    """Checkpoints and corpora that disagree on the units or the feature width."""
    root, data = workdir
    other = tmp_path_factory.mktemp("mismatch")
    assert run(gen_args(other / "data2", ["--units-per-language", "2"])) == 0

    def checkpoint(name, n_units, input_dim):
        arch = Architecture(family="dual", input_dim=input_dim, hidden_dim=4, encoder_layers=1,
                            encoder_mixing="conv", embed_dim=4, decoder_dim=4, joint_dim=4,
                            n_m=n_units, n_e=n_units)
        save_checkpoint(other / name, Checkpoint(arch.fingerprint(), Model(arch).params))
        return other / name

    return {
        "small-model-large-corpus": (checkpoint("units2.csrt", 2, 8), data),
        "large-model-small-corpus": (root / "ft", other / "data2"),
        "narrow-model": (checkpoint("width7.csrt", 5, 7), data),
    }


@pytest.mark.parametrize("probe", ["small-model-large-corpus", "large-model-small-corpus",
                                   "narrow-model"])
@pytest.mark.parametrize("command, extra", [
    ("decode", ["--beam", "1"]), ("eval", ["--beam", "1"]), ("eval-ls", []),
    ("dump-posteriors", ["--utt", "dev-cs-00000"]),
])
def test_checkpoint_not_fitting_corpus_exit_2(mismatched, tmp_path, capsys, probe, command,
                                              extra):
    model, data = mismatched[probe]
    code = run([command, "--model", str(model), "--data", str(data), "--out", str(tmp_path / "o")]
               + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and len(err.splitlines()) == 1
    assert f"does not fit corpus {data}" in err
    assert not (tmp_path / "o").exists()


class TestSelfChecks:
    def test_oracle_check_command(self, capsys):
        assert run(["oracle-check", "--trials", "40"]) == 0
        out = capsys.readouterr().out
        assert "ctc" in out and "rnnt" in out and "ok" in out

    def test_gradcheck_command(self, capsys):
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "full-model" in out and "FAIL" not in out


class TestConfigRoundtrip:
    def test_serialize_parse_fixpoint(self):
        values = config.defaults()
        values["epochs"] = 7
        values["lambda"] = 0.25
        values["variant"] = "vanilla"
        values["force"] = True
        text = config.serialize_config(values)
        assert config.parse_config_text(text) == values
        assert config.serialize_config(config.parse_config_text(text)) == text

    def test_dataclass_defaults_match_registry(self):
        assert CorpusSpec.from_values(config.defaults()) == CorpusSpec()
        assert TrainingConfig.from_values(config.defaults()) == TrainingConfig()

    def test_every_registry_key_roundtrips(self):
        text = config.serialize_config(config.defaults())
        parsed = config.parse_config_text(text)
        assert parsed == config.defaults()
