import numpy as np
import pytest

from csrt.data import (
    SPLITS,
    CorpusSpec,
    gen_corpus,
    load_corpus,
    read_features,
    unit_prototypes,
    write_features,
)
from csrt.errors import CorpusFormatError, CsrtError


def corpus_bytes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestSpecValidation:
    def test_bad_ranges_rejected(self):
        with pytest.raises(CsrtError):
            CorpusSpec(frames_min=4, frames_max=2)
        with pytest.raises(CsrtError):
            CorpusSpec(noise_sigma=-0.1)
        with pytest.raises(CsrtError):
            CorpusSpec(train_count=0)
        with pytest.raises(CsrtError):
            CorpusSpec(cross_lingual_offset=-1.0)


class TestGeneration:
    def test_all_splits_present_with_counts(self, tiny_corpus):
        spec, corpus, _ = tiny_corpus
        assert set(corpus.splits) == set(SPLITS)
        for split, utts in corpus.splits.items():
            phase = split.split("-")[0]
            expect = {"train": spec.train_count, "dev": spec.dev_count, "test": spec.test_count}
            assert len(utts) == expect[phase]

    def test_mono_splits_language_pure(self, tiny_corpus):
        _, corpus, _ = tiny_corpus
        vocab = corpus.vocab
        for split, utts in corpus.splits.items():
            if "mono" not in split:
                continue
            lang = "M" if split.endswith("-m") else "E"
            for utt in utts:
                assert all(vocab.lang_of(u) == lang for u in utt.labels), utt.uid

    def test_cs_contains_both_languages(self, tiny_corpus):
        _, corpus, _ = tiny_corpus
        vocab = corpus.vocab
        for utt in corpus.split("train-cs") + corpus.split("test-cs"):
            langs = {vocab.lang_of(u) for u in utt.labels}
            assert langs == {"M", "E"}, utt.uid

    def test_no_adjacent_repeats(self, tiny_corpus):
        _, corpus, _ = tiny_corpus
        for utts in corpus.splits.values():
            for utt in utts:
                assert all(a != b for a, b in zip(utt.labels, utt.labels[1:]))

    def test_spans_tile_frames_and_match_token_order(self, tiny_corpus):
        _, corpus, _ = tiny_corpus
        vocab = corpus.vocab
        for utts in corpus.splits.values():
            for utt in utts:
                assert utt.spans[0][0] == 0
                assert utt.spans[-1][1] == utt.n_frames
                for (a, b, _), (c, _, _) in zip(utt.spans, utt.spans[1:]):
                    assert b == c and a < b
                # language runs of the transcript match span languages
                runs = []
                for u in utt.labels:
                    lang = vocab.lang_of(u)
                    if not runs or runs[-1] != lang:
                        runs.append(lang)
                assert runs == [s[2] for s in utt.spans]

    def test_unique_ids_across_splits(self, tiny_corpus):
        _, corpus, _ = tiny_corpus
        ids = [u.uid for utts in corpus.splits.values() for u in utts]
        assert len(ids) == len(set(ids))

    def test_byte_identical_regeneration(self, tmp_path):
        spec = CorpusSpec(train_count=4, dev_count=2, test_count=2, seed=5)
        a, b = tmp_path / "a", tmp_path / "b"
        gen_corpus(spec, a)
        gen_corpus(spec, b)
        assert corpus_bytes(a) == corpus_bytes(b)

    def test_sigma_zero_frames_equal_prototypes(self, tmp_path):
        spec = CorpusSpec(train_count=3, dev_count=1, test_count=1, noise_sigma=0.0, seed=9)
        corpus = gen_corpus(spec, tmp_path / "c")
        protos = unit_prototypes(spec).astype(np.float32).astype(np.float64)
        for utts in corpus.splits.values():
            for utt in utts:
                # nearest-prototype classification is exact, and the run-level
                # frame labels reproduce the transcript
                dists = np.linalg.norm(utt.features[:, None, :] - protos[None, :, :], axis=2)
                classified = dists.argmin(axis=1) + 1
                assert dists.min(axis=1).max() < 1e-6
                dedup = [int(classified[0])]
                for k in classified[1:]:
                    if int(k) != dedup[-1]:
                        dedup.append(int(k))
                assert tuple(dedup) == utt.labels

    def test_cross_lingual_offset_places_twins(self):
        spec = CorpusSpec(cross_lingual_offset=0.4, seed=1)
        protos = unit_prototypes(spec)
        n = spec.units_per_language
        gaps = np.linalg.norm(protos[n:] - protos[:n], axis=1)
        assert np.allclose(gaps, 0.4)

    def test_matrix_skew(self, tiny_corpus):
        _, corpus, _ = tiny_corpus
        vocab = corpus.vocab
        m = e = 0
        for utt in corpus.split("train-cs"):
            for u in utt.labels:
                if vocab.lang_of(u) == "M":
                    m += 1
                else:
                    e += 1
        assert 0.55 < m / (m + e) < 0.85


class TestFeatureFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "u.csft"
        write_features(path, x)
        assert np.array_equal(read_features(path), x)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.csft"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CorpusFormatError):
            read_features(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.csft"
        write_features(p, np.zeros((3, 4)))
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(CorpusFormatError):
            read_features(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected(self, tmp_path, bad):
        p = tmp_path / "nan.csft"
        x = np.zeros((3, 4))
        x[1, 2] = bad
        write_features(p, x)
        with pytest.raises(CorpusFormatError) as err:
            read_features(p)
        assert str(p) in str(err.value) and "non-finite" in str(err.value)

    def test_zero_frames_rejected(self, tmp_path):
        p = tmp_path / "empty.csft"
        write_features(p, np.zeros((0, 4)))
        with pytest.raises(CorpusFormatError) as err:
            read_features(p)
        assert "zero frames" in str(err.value)


class TestLoading:
    def test_roundtrip_equals_generated(self, tiny_corpus):
        spec, corpus, root = tiny_corpus
        again = load_corpus(root)
        assert set(again.splits) == set(corpus.splits)
        for split in corpus.splits:
            for a, b in zip(corpus.splits[split], again.splits[split]):
                assert a.uid == b.uid and a.labels == b.labels and a.spans == b.spans
                assert np.array_equal(a.features, b.features)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_truncated_feature_file_names_utterance(self, tmp_path):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        corpus = gen_corpus(spec, root)
        uid = corpus.split("train-cs")[0].uid
        victim = root / "train-cs" / "feats" / f"{uid}.csft"
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert uid in str(err.value)

    def test_unknown_transcript_unit(self, tmp_path):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        gen_corpus(spec, root)
        t = root / "train-cs" / "transcripts.tsv"
        lines = t.read_text().splitlines()
        uid, _, rest = lines[0].partition("\t")
        lines[0] = uid + "\t" + rest + " zz9"
        t.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsrtError):
            load_corpus(root)

    @pytest.mark.parametrize("token", ["0:x:M", "0-4-M", "0:4"])
    def test_malformed_span_token_names_file_and_utterance(self, tmp_path, token):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        gen_corpus(spec, root)
        s = root / "dev-cs" / "spans.tsv"
        uid, _, _ = s.read_text().splitlines()[0].partition("\t")
        s.write_text(f"{uid}\t{token}\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(s) in str(err.value) and uid in str(err.value)

    @pytest.mark.parametrize("spans", ["0:{end}:M", "0:2:M 3:{T}:E", "0:3:M 2:{T}:E"])
    def test_spans_not_tiling_frames_name_file_and_utterance(self, tmp_path, spans):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        utt = gen_corpus(spec, root).split("dev-cs")[0]
        T = utt.n_frames
        s = root / "dev-cs" / "spans.tsv"
        s.write_text(f"{utt.uid}\t{spans.format(T=T, end=T - 1)}\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(s) in str(err.value) and utt.uid in str(err.value)

    def test_non_integer_vocab_id_names_line(self, tmp_path):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        gen_corpus(spec, root)
        v = root / "vocab.tsv"
        lines = v.read_text().splitlines()
        lines[2] = "two\t" + lines[2].partition("\t")[2]
        v.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert f"{v}:3" in str(err.value)

    @pytest.mark.parametrize(
        "edits, line",
        [
            ({1: "2\tm1\tM", 2: "1\tm2\tM"}, 2),  # ids of m1 and m2 swapped
            ({5: "5\te1\tE", 6: "6\tm5\tM"}, 7),  # an M unit after an E unit
        ],
        ids=["ids-swapped", "m-after-e"],
    )
    def test_vocab_ids_must_run_in_line_order(self, tmp_path, edits, line):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        gen_corpus(spec, root)
        v = root / "vocab.tsv"
        lines = v.read_text().splitlines()
        for i, text in edits.items():
            lines[i] = text
        v.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert f"{v}:{line}:" in str(err.value)

    @pytest.mark.parametrize(
        "rel", ["vocab.tsv", "manifest.tsv", "train-cs/transcripts.tsv", "train-cs/spans.tsv"]
    )
    def test_non_utf8_text_names_file(self, tmp_path, rel):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        gen_corpus(spec, root)
        victim = root / rel
        raw = victim.read_bytes()
        victim.write_bytes(raw[:3] + b"\xff" + raw[4:])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(victim) in str(err.value) and "UTF-8" in str(err.value)

    def test_manifest_naming_missing_transcripts_names_line(self, tmp_path):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        gen_corpus(spec, root)
        m = root / "manifest.tsv"
        lines = m.read_text().splitlines()
        lines[1] = lines[1].replace("/transcripts.tsv", "/nope.tsv")
        m.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert f"{m}:2" in str(err.value) and "nope.tsv" in str(err.value)

    def test_empty_transcript_file_gives_empty_split(self, tmp_path):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        gen_corpus(spec, root)
        (root / "train-cs" / "transcripts.tsv").write_text("")
        (root / "train-cs" / "spans.tsv").write_text("")
        corpus = load_corpus(root)
        assert corpus.split("train-cs") == []

    def test_missing_split_name_errors(self, tiny_corpus):
        _, corpus, _ = tiny_corpus
        with pytest.raises(CsrtError):
            corpus.split("no-such-split")
