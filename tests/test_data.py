import numpy as np
import pytest

from conftest import edit_fields
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


def small_corpus(tmp_path, **counts):
    """A generated corpus directory, 2/1/1 utterances per split unless `counts` says otherwise."""
    root = tmp_path / "c"
    spec = dict(train_count=2, dev_count=1, test_count=1, seed=2) | counts
    return root, gen_corpus(CorpusSpec(**spec), root)


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

    @pytest.mark.parametrize(
        "field, value, key",
        [("cs_spans_max", 0, "cs-spans-max"), ("noise_sigma", float("nan"), "noise-sigma"),
         ("seed", -1, "seed")],
    )
    def test_registry_ranges_apply(self, field, value, key):
        with pytest.raises(CsrtError, match=key):
            CorpusSpec(**{field: value})


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

    def test_spans_outnumbering_matrix_gaps_get_one_gap_each(self, tmp_path):
        # At 10% matrix tokens up to 5 drawn spans can outnumber the gaps around the matrix
        # tokens; the span count is capped there, so every span still has a gap to itself.
        spec = CorpusSpec(cs_matrix_fraction=0.1, cs_spans_max=5, train_count=8, dev_count=1,
                          test_count=1, seed=3)
        corpus = gen_corpus(spec, tmp_path / "c")
        for utt in corpus.split("train-cs"):
            langs = [lang for _, _, lang in utt.spans]
            n_m = sum(corpus.vocab.lang_of(u) == "M" for u in utt.labels)
            assert "M" in langs and "E" in langs and langs.count("E") <= n_m + 1

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

    def test_zero_frames_read_as_an_empty_matrix(self, tmp_path):
        p = tmp_path / "empty.csft"
        write_features(p, np.zeros((0, 4)))
        assert read_features(p).shape == (0, 4)

    def test_zero_frames_rejected(self, tmp_path):
        # A read frame matrix may have no rows, but no utterance may: an added line whose spans
        # cover no frame leaves the frame total as it was, so the span check refuses it.
        root, _ = small_corpus(tmp_path)
        u = root / "test-cs" / "utts.tsv"
        text = u.read_text()
        for spans in ("0:0:M", ""):
            u.write_text(text + f"test-cs-00009\tm1\t{spans}\n")
            with pytest.raises(CorpusFormatError) as err:
                load_corpus(root)
            assert str(err.value).startswith(f"{u}:2: spans {spans!r} do not tile frames")


class TestLoading:
    def test_roundtrip_equals_generated(self, tiny_corpus):
        spec, corpus, root = tiny_corpus
        again = load_corpus(root)
        assert set(again.splits) == set(corpus.splits)
        assert again.feature_dim == corpus.feature_dim == spec.feature_dim
        for split in corpus.splits:
            for a, b in zip(corpus.splits[split], again.splits[split]):
                assert a.uid == b.uid and a.labels == b.labels and a.spans == b.spans
                assert np.array_equal(a.features, b.features)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_truncated_feature_file_names_the_file(self, tmp_path):
        root, _ = small_corpus(tmp_path)
        victim = root / "train-cs" / "feats.csft"
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(err.value).startswith(f"{victim}: expected ")

    def test_feature_width_unlike_the_first_file_names_the_file(self, tmp_path):
        root, _ = small_corpus(tmp_path)
        victim = root / "train-cs" / "feats.csft"
        write_features(victim, read_features(victim)[:, :7])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        first = root / "train-mono-m" / "feats.csft"
        assert str(err.value) == f"{victim} has 7 features per frame, {first} has 8"

    @pytest.mark.parametrize("extra", [1, -1])
    def test_frame_rows_unlike_the_span_total_name_both_files(self, tmp_path, extra):
        root, corpus = small_corpus(tmp_path)  # dev-cs holds one utterance
        feats, utts = root / "dev-cs" / "feats.csft", root / "dev-cs" / "utts.tsv"
        frames = read_features(feats)
        write_features(feats, np.concatenate([frames, frames[:1]]) if extra > 0 else frames[:-1])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        T = corpus.split("dev-cs")[0].n_frames
        assert str(err.value) == f"{feats} has {T + extra} frames, but the spans of {utts} cover {T}"

    def test_corpus_without_utterances_names_it(self, tmp_path):
        root, _ = small_corpus(tmp_path)
        for split in SPLITS:
            (root / split / "utts.tsv").write_text("")
            write_features(root / split / "feats.csft", np.zeros((0, 8)))
        with pytest.raises(CorpusFormatError, match=f"corpus {root} has no utterances"):
            load_corpus(root)

    def test_unknown_transcript_unit(self, tmp_path):
        root, _ = small_corpus(tmp_path)
        u = root / "train-cs" / "utts.tsv"
        edit_fields(u, 0, lambda f: [f[0], f[1] + " zz9", f[2]])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(err.value) == f"{u}:1: unknown vocabulary surface 'zz9'"

    # int() reads the last three as the span [0, T); span ends are ASCII digits only.
    @pytest.mark.parametrize("token", ["0:x:M", "0-4-M", "0:4", "0:0_{T}:M", "+0:{T}:M",
                                       "\u0660:{T}:M"])
    def test_malformed_span_token_names_file_and_utterance(self, tmp_path, token):
        root, corpus = small_corpus(tmp_path)  # dev-cs holds one utterance
        u = root / "dev-cs" / "utts.tsv"
        token = token.format(T=corpus.split("dev-cs")[0].n_frames)
        edit_fields(u, 0, lambda f: f[:2] + [token])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(err.value) == f"{u}:1: malformed span {token!r} (expected start:end:M|E)"

    @pytest.mark.parametrize("spans", ["0:{end}:M", "0:2:M 3:{T}:E", "0:3:M 2:{T}:E",
                                       "0:0:M 0:{T}:E", "0:{T}:M {T}:{T}:E"])
    def test_spans_not_tiling_frames_name_file_and_utterance(self, tmp_path, spans):
        root, corpus = small_corpus(tmp_path)  # dev-cs holds one utterance
        u = root / "dev-cs" / "utts.tsv"
        T = corpus.split("dev-cs")[0].n_frames
        spans = spans.format(T=T, end=T - 1)
        edit_fields(u, 0, lambda f: f[:2] + [spans])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        # Spans that tile fewer frames than the utterance has leave the split's total short.
        assert str(err.value) in (
            f"{u}:1: spans {spans!r} do not tile frames [0, T) in order, each span non-empty",
            f"{root / 'dev-cs' / 'feats.csft'} has {T} frames, but the spans of {u} cover {T - 1}")

    def test_non_integer_vocab_id_names_line(self, tmp_path):
        spec = CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2)
        root = tmp_path / "c"
        gen_corpus(spec, root)
        v = root / "vocab.tsv"
        lines = v.read_text().splitlines()
        # int() reads the last three as 2, line 3's id; ids are ASCII digits only.
        for uid in ("two", "0_2", "+2", "\u0662"):
            lines[2] = f"{uid}\t" + lines[2].partition("\t")[2]
            v.write_text("\n".join(lines) + "\n")
            with pytest.raises(CorpusFormatError) as err:
                load_corpus(root)
            assert str(err.value) == f"{v}:3: unit id {uid!r} is not an integer"

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

    # The transcripts and spans cases put the byte at the start of that column of the
    # first utts.tsv line; the others at byte 3 of the file.
    @pytest.mark.parametrize(
        "rel", ["vocab.tsv", "train-cs/utts.tsv", "train-cs/transcripts.tsv", "train-cs/spans.tsv"]
    )
    def test_non_utf8_text_names_file(self, tmp_path, rel):
        root, _ = small_corpus(tmp_path)
        column = {"train-cs/transcripts.tsv": 1, "train-cs/spans.tsv": 2}.get(rel)
        victim = root / (rel if column is None else "train-cs/utts.tsv")
        raw = victim.read_bytes()
        at = 3 if column is None else len(b"\t".join(raw.split(b"\t")[:column])) + 1
        victim.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(victim) in str(err.value) and "UTF-8" in str(err.value)

    @pytest.mark.parametrize("rel", ["transcripts.tsv", "spans.tsv"])
    def test_repeated_utterance_id_names_file_and_line(self, tmp_path, rel):
        """Line 4 repeats line 2's id, with line 3's transcript or line 3's spans: the id
        alone is refused, whatever the rest of its line holds."""
        root, _ = small_corpus(tmp_path, test_count=3)
        f = root / "test-cs" / "utts.tsv"
        lines = f.read_text().splitlines()
        column = {"transcripts.tsv": 1, "spans.tsv": 2}[rel]
        repeat = lines[1].split("\t")
        repeat[column] = lines[2].split("\t")[column]
        f.write_text("\n".join(lines + ["\t".join(repeat)]) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(err.value) == f"{f}:4: repeated utterance id 'test-cs-00001'"

    @pytest.mark.parametrize("fields", [4, 2])
    def test_utterance_line_needs_three_fields(self, tmp_path, fields):
        root, _ = small_corpus(tmp_path)
        u = root / "test-cs" / "utts.tsv"
        edit_fields(u, 0, lambda f: (f + ["x"])[:fields])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(err.value) == f"{u}:1: expected 3 tab-separated fields"

    @pytest.mark.parametrize("line", ["0\tfoo\tM", "0\t<blank>\tM", "0\tm1\t-"])
    def test_vocab_line_one_must_be_the_blank(self, tmp_path, line):
        root = tmp_path / "c"
        gen_corpus(CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=2), root)
        v = root / "vocab.tsv"
        lines = v.read_text().splitlines()
        assert lines[0] == "0\t<blank>\t-"
        v.write_text("\n".join([line] + lines[1:]) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(err.value) == f"{v}:1: expected '0\\t<blank>\\t-', got {line!r}"

    def test_empty_span_line_does_not_tile_frames(self, tmp_path):
        root, _ = small_corpus(tmp_path, test_count=2)
        u = root / "test-cs" / "utts.tsv"
        edit_fields(u, 0, lambda f: f[:2] + [""])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(root)
        assert str(err.value) == (f"{u}:1: spans '' do not tile frames [0, T) in order, "
                                  "each span non-empty")

    def test_empty_transcript_file_gives_empty_split(self, tmp_path):
        root, _ = small_corpus(tmp_path)
        (root / "train-cs" / "utts.tsv").write_text("")
        write_features(root / "train-cs" / "feats.csft", np.zeros((0, 8)))
        corpus = load_corpus(root)
        assert corpus.split("train-cs") == [] and len(corpus.split("train-mono-m")) == 2

    def test_each_split_is_two_files(self, tmp_path):
        root, corpus = small_corpus(tmp_path)
        assert sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()) == sorted(
            ["vocab.tsv"] + [f"{s}/{name}" for s in SPLITS for name in ("utts.tsv", "feats.csft")])
        for utts in corpus.splits.values():  # each utterance's frames are its rows of the split's
            assert all(u.features.base is utts[0].features.base for u in utts)

    def test_missing_split_name_errors(self, tiny_corpus):
        _, corpus, _ = tiny_corpus
        with pytest.raises(CsrtError):
            corpus.split("no-such-split")
