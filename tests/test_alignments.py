import numpy as np
import pytest

from csrt.alignments import (
    BLANK,
    Vocabulary,
    collapse,
    compose,
    ctc_states,
    decompose,
    enumerate_ctc_alignments,
    enumerate_rnnt_paths,
    mask_labels,
    min_ctc_length,
)
from csrt.errors import (
    AlignmentConflictError,
    CapExceededError,
    CsrtError,
    InfeasibleTargetError,
    LengthMismatchError,
)


def random_bilingual_alignment(rng, vocab, t):
    ids = (BLANK,) + vocab.m_ids() + vocab.e_ids()
    return tuple(int(ids[rng.integers(len(ids))]) for _ in range(t))


class TestVocabulary:
    def test_blank_is_zero_and_untagged(self, vocab22):
        assert vocab22.lang_of(BLANK) is None
        assert vocab22.surface(BLANK) == "<blank>"

    def test_partition_disjoint(self, vocab22):
        assert set(vocab22.m_ids()) & set(vocab22.e_ids()) == set()
        for u in vocab22.m_ids():
            assert vocab22.lang_of(u) == "M"
        for u in vocab22.e_ids():
            assert vocab22.lang_of(u) == "E"

    def test_local_global_roundtrip(self, vocab22):
        for lang in ("M", "E"):
            for u in vocab22.lang_ids(lang):
                assert vocab22.to_global(lang, vocab22.to_local(lang, u)) == u

    def test_duplicate_surface_rejected(self):
        with pytest.raises(CsrtError):
            Vocabulary(m_surfaces=("a",), e_surfaces=("a",))

    def test_wrong_language_local_rejected(self, vocab22):
        with pytest.raises(CsrtError):
            vocab22.to_local("E", vocab22.m_ids()[0])


class TestCollapse:
    def test_repeat_and_blank_removal(self):
        # [a, a, blank, a] -> [a, a]
        assert collapse((1, 1, 0, 1)) == (1, 1)

    def test_all_blank(self):
        assert collapse((0, 0, 0)) == ()

    def test_no_repeats_no_blanks(self):
        assert collapse((1, 2, 1)) == (1, 2, 1)


class TestCompose:
    def test_frame_rules(self):
        # zm=[m1,0,0], ze=[0,0,e1] with 1 M unit: e1 has global id 2
        assert compose((1, 0, 0), (0, 0, 2)) == (1, 0, 2)

    def test_all_blank(self):
        assert compose((0, 0), (0, 0)) == (0, 0)

    def test_conflict_carries_frame(self):
        with pytest.raises(AlignmentConflictError) as err:
            compose((1,), (2,))
        assert err.value.frame == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            compose((0, 0), (0,))


class TestDecompose:
    def test_splits_by_language(self, vocab22):
        e1 = vocab22.e_ids()[0]
        assert decompose((1, 0, e1), vocab22) == ((1, 0, 0), (0, 0, e1))

    def test_all_blank(self, vocab22):
        assert decompose((0, 0), vocab22) == ((0, 0), (0, 0))

    def test_compose_decompose_roundtrip_1000(self, vocab22):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            z = random_bilingual_alignment(rng, vocab22, int(rng.integers(0, 9)))
            assert compose(*decompose(z, vocab22)) == z

    def test_decompose_compose_roundtrip_1000(self, vocab22):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            z = random_bilingual_alignment(rng, vocab22, int(rng.integers(0, 9)))
            zm, ze = decompose(z, vocab22)
            assert decompose(compose(zm, ze), vocab22) == (zm, ze)

    def test_language_projection_consistency_1000(self, vocab22):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            z = random_bilingual_alignment(rng, vocab22, int(rng.integers(0, 9)))
            zm, ze = decompose(z, vocab22)
            merged = collapse(compose(zm, ze))
            assert mask_labels(merged, "M", vocab22) == collapse(zm)
            assert mask_labels(merged, "E", vocab22) == collapse(ze)


class TestMaskLabels:
    def test_masking_rule(self, vocab22):
        e1 = vocab22.e_ids()[0]
        y = (1, e1, 2)
        assert mask_labels(y, "M", vocab22) == (1, 2)
        assert mask_labels(y, "E", vocab22) == (e1,)

    def test_all_mandarin_gives_empty_e(self, vocab22):
        assert mask_labels((1, 2, 1), "E", vocab22) == ()

    def test_partition_reconstructs_1000(self, vocab22):
        rng = np.random.default_rng(6)
        units = vocab22.m_ids() + vocab22.e_ids()
        for _ in range(1000):
            y = tuple(int(units[rng.integers(len(units))]) for _ in range(int(rng.integers(0, 10))))
            ym = list(mask_labels(y, "M", vocab22))
            ye = list(mask_labels(y, "E", vocab22))
            rebuilt = [
                (ym if vocab22.lang_of(u) == "M" else ye).pop(0) for u in y
            ]
            assert tuple(rebuilt) == y and not ym and not ye


def ctc_alignment_count(y, T):
    """Closed-form dynamic-programming count of CTC alignments (no enumeration)."""
    y = tuple(y)
    if T < min_ctc_length(y):
        return 0
    ext = ctc_states(y)
    S = len(ext)
    counts = [0] * S
    counts[0] = 1
    if S > 1:
        counts[1] = 1
    for _ in range(1, T):
        nxt = [0] * S
        for s in range(S):
            c = counts[s]
            if s >= 1:
                c += counts[s - 1]
            if s >= 2 and ext[s] != BLANK and ext[s] != ext[s - 2]:
                c += counts[s - 2]
            nxt[s] = c
        counts = nxt
    total = counts[S - 1]
    if S > 1:
        total += counts[S - 2]
    return total


class TestEnumerateCtc:
    def test_single_label_t2(self):
        assert enumerate_ctc_alignments((1,), 2) == {(1, 0), (0, 1), (1, 1)}

    def test_empty_label(self):
        assert enumerate_ctc_alignments((), 2) == {(0, 0)}

    def test_repeat_needs_separator(self):
        with pytest.raises(InfeasibleTargetError):
            enumerate_ctc_alignments((1, 1), 2)

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            enumerate_ctc_alignments((1,), 9)
        with pytest.raises(CapExceededError):
            enumerate_ctc_alignments((1, 2, 1, 2, 1), 8)

    def test_all_elements_collapse_to_target(self):
        y = (1, 2)
        for z in enumerate_ctc_alignments(y, 4):
            assert collapse(z) == y and len(z) == 4

    def test_count_matches_dp_50_random(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 50:
            t = int(rng.integers(1, 7))
            l = int(rng.integers(0, 4))
            y = tuple(int(rng.integers(1, 3)) for _ in range(l))
            if min_ctc_length(y) > t:
                continue
            assert len(enumerate_ctc_alignments(y, t)) == ctc_alignment_count(y, t)
            done += 1


class TestEnumerateRnnt:
    def test_t1_l1_single_path(self):
        assert enumerate_rnnt_paths((1,), 1) == {(1, 0)}

    def test_t2_l1_two_paths(self):
        assert enumerate_rnnt_paths((1,), 2) == {(1, 0, 0), (0, 1, 0)}

    def test_empty_label_single_path(self):
        assert enumerate_rnnt_paths((), 3) == {(0, 0, 0)}

    def test_terminal_blank_and_count(self):
        from math import comb

        for t, l in ((3, 2), (4, 3), (2, 0)):
            y = tuple((i % 2) + 1 for i in range(l))
            paths = enumerate_rnnt_paths(y, t)
            assert len(paths) == comb(t + l - 1, l)
            for p in paths:
                assert len(p) == t + l and p[-1] == BLANK
                assert tuple(s for s in p if s != BLANK) == y

    def test_needs_one_frame(self):
        with pytest.raises(InfeasibleTargetError):
            enumerate_rnnt_paths((1,), 0)
