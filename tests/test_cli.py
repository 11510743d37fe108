import os

import numpy as np
import pytest

from csrt import config
from csrt.cli import run
from csrt.model import load_checkpoint, save_checkpoint


def gen_args(out, extra=()):
    return [
        "gen-data",
        "--spec",
        "default",
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

    def test_every_registry_key_roundtrips(self):
        text = config.serialize_config(config.defaults())
        parsed = config.parse_config_text(text)
        assert parsed == config.defaults()
