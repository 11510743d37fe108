import os

import numpy as np
import pytest

from csrt import checks
from csrt.alignments import mask_labels
from csrt.data import CorpusSpec, Utterance, gen_corpus
from csrt.errors import CsrtError
from csrt.metrics import (
    ErrorStats,
    SplitReport,
    dump_frame_posteriors,
    error_stats,
    eval_language_separation,
    format_separation_report,
    format_split_report,
    mixed_error_rate,
    evaluate_split,
)
from csrt.model import Architecture, Model


class TestErrorStats:
    def test_identical(self):
        s = error_stats((1, 2, 3), (1, 2, 3))
        assert (s.sub, s.ins, s.dele, s.rate) == (0, 0, 0, 0.0)

    def test_single_substitution(self):
        s = error_stats((1, 9, 3), (1, 2, 3))
        assert (s.sub, s.ins, s.dele) == (1, 0, 0)
        assert s.rate == pytest.approx(1 / 3)

    def test_empty_hypothesis_all_deletions(self):
        s = error_stats((), (1, 2, 3))
        assert (s.sub, s.ins, s.dele, s.rate) == (0, 0, 3, 1.0)

    def test_empty_reference_all_insertions(self):
        s = error_stats((1, 2), ())
        assert (s.sub, s.ins, s.dele) == (0, 2, 0)
        assert s.rate == 2.0  # max(1, 0) denominator

    def test_prefers_fewer_insertions_among_minimal(self):
        # swap: sub-sub (I=0) beats del+ins at равном cost
        s = error_stats((1, 2), (2, 1))
        assert s.errors == 2 and s.ins == 0 and s.sub == 2

    def test_symmetry_swaps_ins_del(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 8))))
            b = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 8))))
            s_ab = error_stats(a, b)
            s_ba = error_stats(b, a)
            assert s_ab.errors == s_ba.errors
            assert (s_ab.sub, s_ab.ins, s_ab.dele) == (s_ba.sub, s_ba.dele, s_ba.ins)

    def test_addition_aggregates(self):
        s = ErrorStats(1, 2, 3, 10) + ErrorStats(1, 1, 1, 5)
        assert (s.sub, s.ins, s.dele, s.ref_len) == (2, 3, 4, 15)


class TestMixedErrorRate:
    def test_perfect(self, vocab55):
        y = (1, 6, 2)
        score = mixed_error_rate(y, y, vocab55)
        assert score.mer.errors == 0 and score.m.errors == 0 and score.e.errors == 0

    def test_missing_one_e_token(self, vocab55):
        # 10-token ref, 5 M and 5 E; hyp misses one E token
        e = vocab55.e_ids()
        ref = (1, e[0], 2, e[1], 3, e[2], 4, e[3], 5, e[4])
        hyp = ref[:-1]
        score = mixed_error_rate(hyp, ref, vocab55)
        assert score.mer.rate == pytest.approx(0.1)
        assert score.e.rate == pytest.approx(0.2)
        assert score.m.rate == 0.0

    def test_pure_m_reference_has_absent_wer(self, vocab55):
        ref = (1, 2, 3)
        score = mixed_error_rate((1, 2, 3), ref, vocab55)
        assert score.e.ref_len == 0 and score.e.ins == 0
        assert score.mer.rate == score.m.rate == 0.0

    def test_leaked_token_counts_toward_ins(self, vocab55):
        ref = (1, 2)
        hyp = (1, vocab55.e_ids()[0], 2)
        score = mixed_error_rate(hyp, ref, vocab55)
        assert score.e.ref_len == 0 and score.e.ins == 1

    def test_mer_errors_dominate_projections(self, vocab55):
        rng = np.random.default_rng(1)
        units = vocab55.m_ids() + vocab55.e_ids()
        for _ in range(300):
            ref = tuple(int(units[rng.integers(10)]) for _ in range(int(rng.integers(0, 9))))
            hyp = tuple(int(units[rng.integers(10)]) for _ in range(int(rng.integers(0, 9))))
            score = mixed_error_rate(hyp, ref, vocab55)
            assert score.mer.errors >= max(score.m.errors, score.e.errors)


def separating_model(vocab):
    """Tiny dual model rigged so each head decodes its language perfectly.

    Input features are one-hot unit indicators (dim = units + 1); weights are
    hand-set so the heads and the joint read them off directly.
    """
    n = vocab.size
    arch = Architecture(
        family="dual",
        input_dim=n + 1,
        hidden_dim=n + 1,
        encoder_layers=1,
        encoder_mixing="conv",
        embed_dim=4,
        decoder_dim=4,
        joint_dim=n + 1,
        n_m=vocab.n_m,
        n_e=vocab.n_e,
    )
    model = Model(arch, seed=0)
    for arr in model.params.values():
        arr[...] = 0.0  # in place: every block is a view of the parameter vector
    big = 50.0
    # encoders pass one-hot features through (tanh squashes, sign survives)
    for enc in ("enc_m", "enc_e"):
        model.params[f"{enc}.0.w_cur"][...] = big * np.eye(n + 1)
        model.params[f"{enc}.0.w_ff"][...] = big * np.eye(n + 1)
    # heads: language's own unit columns fire on the unit row, blank wins on
    # other-language rows and the silence row (index n)
    for lang, name in (("M", "head_m"), ("E", "head_e")):
        w = model.params[f"{name}.w"]
        own = vocab.lang_ids(lang)
        for col, u in enumerate(own, start=1):
            w[u - 1, col] = big
        for u in range(n + 1):
            if (u + 1) not in own:
                w[u, 0] = big
    return model


def make_utterance(vocab, labels, frames_per=2):
    n = vocab.size
    rows = []
    spans = []
    cursor = 0
    for u in labels:
        block = np.zeros((frames_per, n + 1))
        block[:, u - 1] = 1.0
        rows.append(block)
        cursor += frames_per
    feats = np.concatenate(rows)

    class U:
        pass

    utt = U()
    utt.uid = "synthetic"
    utt.features = feats
    utt.labels = tuple(labels)
    utt.spans = ()
    return utt


class TestLanguageSeparationEval:
    def test_perfect_separation_all_zero(self, vocab22):
        model = separating_model(vocab22)
        utts = [
            make_utterance(vocab22, (1, 3, 2)),
            make_utterance(vocab22, (3, 1, 4)),
        ]
        res = eval_language_separation(model, utts, vocab22)
        for lang in ("M", "E"):
            assert res[lang]["rate"] == 0.0 and res[lang]["ins"] == 0.0

    def test_other_language_only_gives_empty_hyp(self, vocab22):
        model = separating_model(vocab22)
        utts = [make_utterance(vocab22, (3, 4, 3))]  # pure E
        res = eval_language_separation(model, utts, vocab22)
        assert res["M"]["ins"] == 0.0

    def test_vanilla_rejected(self, vocab22):
        arch = Architecture(
            family="single",
            input_dim=3,
            hidden_dim=4,
            encoder_layers=1,
            encoder_mixing="conv",
            embed_dim=3,
            decoder_dim=4,
            joint_dim=4,
            n_m=2,
            n_e=2,
        )
        with pytest.raises(CsrtError):
            eval_language_separation(Model(arch, seed=0), [], vocab22)


class TestPosteriorDump:
    def test_rows_and_normalization(self, vocab22, tmp_path):
        model = separating_model(vocab22)
        utt = make_utterance(vocab22, (1, 3))
        out = tmp_path / "post.csv"
        dump_frame_posteriors(model, utt.features, out, vocab22)
        lines = out.read_text().splitlines()
        assert lines[0] == "frame,m_blank,m_units,m_top,e_blank,e_units,e_top"
        assert len(lines) - 1 == utt.features.shape[0]
        for line in lines[1:]:
            f = line.split(",")
            assert abs(float(f[1]) + float(f[2]) - 1.0) < 1e-9
            assert abs(float(f[4]) + float(f[5]) - 1.0) < 1e-9
            assert f[3] in vocab22.surfaces and f[6] in vocab22.surfaces

    def test_failed_write_keeps_existing_file(self, vocab22, tmp_path, monkeypatch):
        out = tmp_path / "post.csv"
        out.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        features = make_utterance(vocab22, (1, 3)).features
        with pytest.raises(OSError, match="replace failed"):
            dump_frame_posteriors(separating_model(vocab22), features, out, vocab22)
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["post.csv"]


class TestReports:
    def test_split_report_layout(self):
        rep = SplitReport(
            mer=ErrorStats(1, 0, 0, 10), cer=ErrorStats(0, 0, 0, 5), wer=ErrorStats(1, 0, 0, 5),
            n_utts=3,
        )
        text = format_split_report("test-cs", rep)
        assert "MER" in text and "test-cs" in text and "10.00" in text

    def test_split_report_empty_projection_prints_dash(self):
        # A mono-M split: leaked E tokens are insertions, but WER has no reference.
        rep = SplitReport(
            mer=ErrorStats(0, 153, 0, 40), cer=ErrorStats(0, 0, 0, 40),
            wer=ErrorStats(0, 153, 0, 0), n_utts=8,
        )
        row = format_split_report("test-mono-m", rep).splitlines()[1].split()
        assert row == ["test-mono-m", "8", "382.50", "0.00", "-"]

    def test_separation_report_layout(self):
        res = {"M": {"rate": 0.118, "ins": 0.037, "ref_len": 17},
               "E": {"rate": 0.427, "ins": 0.079, "ref_len": 9}}
        text = format_separation_report(res)
        assert "INS" in text and "3.70" in text and "7.90" in text

    def test_separation_report_prints_dash_without_reference_tokens(self, vocab22):
        # Pure E: the M sub-net has no reference tokens, so its rates do not exist; INS
        # gives the count of tokens it inserted, none for a separating model.
        utts = [make_utterance(vocab22, (3, 4, 3))]
        res = eval_language_separation(separating_model(vocab22), utts, vocab22)
        assert (res["M"]["ref_len"], res["E"]["ref_len"]) == (0, 3)
        rows = [line.split() for line in format_separation_report(res).splitlines()[1:]]
        assert rows == [["M", "(CER)", "-", "0"], ["E", "(WER)", "0.00", "0.00"]]

    def test_separation_report_shows_leakage_without_reference_tokens(self):
        # Only M labels: the E sub-net's every token is leakage, reported as a count.
        model, vocab, x, _ = checks.tiny_setup()
        utts = [Utterance(f"u{i}", x, (1,)) for i in range(3)]
        res = eval_language_separation(model, utts, vocab)
        assert res["E"] == {"rate": 0.0, "ins": 3.0, "ref_len": 0} and res["M"]["ref_len"] == 3
        rows = [line.split() for line in format_separation_report(res).splitlines()[1:]]
        assert rows[1] == ["E", "(WER)", "-", "3"]
