from pathlib import Path

import numpy as np
import pytest

from csrt import autodiff as ad
from csrt import checks, decoding, metrics
from csrt.alignments import BLANK, collapse
from csrt.data import CorpusSpec, Utterance, gen_corpus, load_corpus
from csrt.decoding import greedy_ctc_decode, rnnt_decode
from csrt.errors import CsrtError
from csrt.model import Architecture, Model, load_checkpoint

DECODE_MODEL = Path(__file__).resolve().parent.parent / "perfbench" / "decode_model.csrt"


def toy_model(seed, n_m=2, n_e=2):
    arch = Architecture(
        family="dual",
        input_dim=3,
        hidden_dim=5,
        encoder_layers=1,
        encoder_mixing="conv",
        embed_dim=3,
        decoder_dim=4,
        joint_dim=4,
        n_m=n_m,
        n_e=n_e,
    )
    return Model(arch, seed=seed)


def _joint_dist(model, bound, enc_t, h_dec):
    """One cell of the taped joint lattice, as a flat (V+1,) array."""
    return model.joint(bound, enc_t, h_dec).data.reshape(-1)


def _state(model, bound, prefix):
    """Prediction-net state after `prefix`: the last row of Model.predict."""
    return ad.index_select(model.predict(bound, prefix), [len(prefix)])


def reference_greedy(model, x, frames=None):
    """Independent greedy policy: emit while the argmax is non-blank.

    When given a list as `frames`, appends the frame of each emission to it.
    """
    bound, _ = model.bind(ad.Tape())  # the taped op-by-op components, not the array path
    [h_enc], _ = model.encode_fused(bound, [x])
    prefix = []
    h_dec = _state(model, bound, ())
    score = 0.0
    for t in range(h_enc.shape[0]):
        enc_t = ad.index_select(h_enc, [t])
        while True:
            lp = _joint_dist(model, bound, enc_t, h_dec)
            k = int(np.argmax(lp))
            if k == BLANK or len(prefix) >= 3 * h_enc.shape[0]:
                score += lp[BLANK]
                break
            prefix.append(k)
            score += lp[k]
            if frames is not None:
                frames.append(t)
            h_dec = _state(model, bound, tuple(prefix))
    return tuple(prefix), float(score)


def reference_beam(model, x, beam):
    """Frame-synchronous beam search, one hypothesis at a time through Model.joint.

    Each hypothesis carries its prediction-net state, the last row of
    Model.predict over its prefix. Within a frame every frontier hypothesis ends with blank into `done` or
    extends by one unit; `done` keeps the best `beam` by (-score, prefix), and
    only extensions above its worst entry survive. Like rnnt_decode, the
    result falls back to the greedy chain when that scores higher.
    """
    bound, _ = model.bind(ad.Tape())  # the taped op-by-op components, not the array path
    [h_enc], _ = model.encode_fused(bound, [x])
    T = h_enc.shape[0]
    cap = 3 * T

    def top(hyps, k):
        return sorted(hyps, key=lambda h: (-h[1], h[0]))[:k]

    hyps = [((), 0.0, _state(model, bound, ()))]
    for t in range(T):
        enc_t = ad.index_select(h_enc, [t])
        done = []
        frontier = hyps
        while frontier:
            scored = []
            for prefix, score, h_dec in frontier:
                lp = _joint_dist(model, bound, enc_t, h_dec)
                done.append((prefix, score + float(lp[BLANK]), h_dec))
                scored.append((prefix, score, h_dec, lp))
            done = top(done, beam)
            floor = done[-1][1] if len(done) >= beam else -np.inf
            ext = []
            for prefix, score, h_dec, lp in scored:
                if len(prefix) >= cap:
                    continue
                for k in range(1, model.arch.n_units + 1):
                    s = score + float(lp[k])
                    if s > floor:
                        ext.append((prefix + (k,), s))
            frontier = [(prefix, s, _state(model, bound, prefix)) for prefix, s in top(ext, beam)]
        hyps = done
    best = top(hyps, 1)[0][:2]
    greedy = reference_greedy(model, x)
    return greedy if greedy[1] > best[1] else best


def reference_step_beam(model, x, beam):
    """A beam that ranks `done` and the frontier by (-score, prefix) after every step, reads
    the floor off the ranked `done`, and ranks every extension above the floor.

    It drives rnnt_decode's own `_Scorer`, so the two differ only in what they rank and
    when, and in the order of a frontier's rows in the joint call.
    """
    [h_enc], _ = model.encode_fused(model.params, [x])
    cap = decoding.MAX_EMITS_PER_FRAME_FACTOR * len(h_enc)
    scorer = decoding._Scorer(model, h_enc)

    def top(prefixes, scores, k):
        return sorted(range(len(scores)), key=lambda i: (-scores[i], prefixes[i]))[:k]

    done, done_scores = [0], [0.0]
    for t in range(len(h_enc)):
        frontier, base = done, np.array(done_scores)
        done, done_scores = [], []
        while frontier:
            lp = scorer.log_probs(t, frontier)
            done += frontier
            done_scores += (base + lp[:, BLANK]).tolist()
            kept = top([scorer.prefixes[i] for i in done], done_scores, beam)
            done, done_scores = [done[i] for i in kept], [done_scores[i] for i in kept]
            floor = done_scores[-1] if len(done) >= beam else -np.inf
            ext = base[:, None] + lp[:, 1:]
            ext[[len(scorer.prefixes[i]) >= cap for i in frontier]] = -np.inf
            rows, cols = np.nonzero(ext > floor)
            pairs = [(frontier[i], k + 1) for i, k in zip(rows.tolist(), cols.tolist())]
            kept = top([scorer.prefixes[i] + (k,) for i, k in pairs], ext[rows, cols].tolist(),
                       beam)
            frontier = [scorer.child(*pairs[i]) for i in kept]
            base = ext[rows, cols][kept]
    best = scorer.prefixes[done[0]], done_scores[0]
    greedy = decoding._greedy(scorer, cap)
    return greedy if greedy[1] > best[1] else best


def one_row_at_a_time(monkeypatch):
    """Score each prefix in a joint call of its own, so that a row's value cannot depend
    on its place in the call or on how many rows share it, whatever the BLAS."""
    log_probs = decoding._Scorer.log_probs

    def rows(scorer, t, ids):
        return np.concatenate([log_probs(scorer, t, [i]) for i in ids])

    monkeypatch.setattr(decoding._Scorer, "log_probs", rows)


def rigged_emitter(seed):
    """A toy model whose joint always prefers unit 1, so only the cap stops emission."""
    model = toy_model(seed=seed)
    model.params["joint.b_out"][...] = [-1e3, 10.0, 0.0, 0.0, 0.0]
    model.params["joint.w_out"][...] = 0.0
    return model


def sharp_model(seed):
    """A toy model with peaked, state-dependent joint outputs.

    At its initial scale a toy model decodes to the empty sequence at every
    beam; this one's searches branch, and its best paths often emit.
    """
    model = toy_model(seed=seed)
    p = model.params
    p["joint.w_dec"] *= 3.0
    p["joint.w_out"] *= 6.0
    p["joint.b_out"][BLANK] = -2.0
    return model


def interchangeable_units(seed):
    """A sharp model whose units share one embedding and one output column.

    The shared column has one non-zero weight, so every unit's logit is the
    same single product in any order a matmul kernel sums (a dense column
    can round differently in different output columns). Hypotheses that
    differ only in which unit they emitted score exactly alike, so only the
    (-score, prefix) tie-break tells them apart.
    """
    model = sharp_model(seed)
    p = model.params
    p["dec.embed"][2:5] = p["dec.embed"][1]
    p["joint.w_out"][:, 1:] = 0.0
    p["joint.w_out"][0, 1:] = 6.0
    return model


def tied_emissions(seed):
    """A sharp model whose units share one output column but keep their own embeddings.

    Siblings tie on their emission score but not afterwards, so which of them a beam keeps
    when more than `beam` tie at the cut changes what it finds next.
    """
    model = sharp_model(seed)
    p = model.params
    p["joint.w_out"][:, 1:] = 0.0
    p["joint.w_out"][0, 1:] = 6.0
    return model


class TestGreedyCtc:
    def test_collapse_of_argmax(self):
        # argmax path [a, a, blank, b] -> [a, b]
        lp = np.log(
            np.array(
                [
                    [0.1, 0.8, 0.1],
                    [0.2, 0.6, 0.2],
                    [0.9, 0.05, 0.05],
                    [0.1, 0.1, 0.8],
                ]
            )
        )
        assert greedy_ctc_decode(lp) == (1, 2)

    def test_all_blank(self):
        lp = np.log(np.array([[0.9, 0.1], [0.8, 0.2]]))
        assert greedy_ctc_decode(lp) == ()

    def test_one_hot_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = tuple(int(rng.integers(0, 3)) for _ in range(int(rng.integers(1, 9))))
            rows = np.full((len(z), 3), 1e-9)
            for t, s in enumerate(z):
                rows[t, s] = 1.0
            rows /= rows.sum(axis=1, keepdims=True)
            assert greedy_ctc_decode(np.log(rows)) == collapse(z)


class TestRnntDecode:
    def test_beam1_matches_reference_greedy_100(self):
        rng = np.random.default_rng(1)
        for i in range(100):
            model = toy_model(seed=i % 7)
            x = rng.standard_normal((int(rng.integers(2, 8)), 3))
            got = rnnt_decode(model, x, beam=1)
            want = reference_greedy(model, x)
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_beam_never_below_greedy(self):
        rng = np.random.default_rng(2)
        for i in range(30):
            model = toy_model(seed=100 + i)
            x = rng.standard_normal((int(rng.integers(2, 7)), 3))
            g = rnnt_decode(model, x, beam=1)
            for beam in (2, 4, 10):
                b = rnnt_decode(model, x, beam=beam)
                assert b[1] >= g[1] - 1e-12

    def test_deterministic(self):
        model = toy_model(seed=3)
        x = np.random.default_rng(3).standard_normal((5, 3))
        a = rnnt_decode(model, x, beam=4)
        b = rnnt_decode(model, x, beam=4)
        assert a == b

    def test_beam_must_be_positive(self):
        with pytest.raises(CsrtError, match="^rnnt_decode: beam must be >= 1, got 0$"):
            rnnt_decode(toy_model(seed=0), np.zeros((2, 3)), beam=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x = np.zeros((4, 3))
        x[2, 1] = bad
        for beam in (1, 4):
            with pytest.raises(CsrtError) as err:
                rnnt_decode(toy_model(seed=0), x, beam=beam)
            assert str(err.value) == "rnnt_decode: features hold a non-finite value"

    def test_emission_cap(self):
        # a model rigged to always emit would loop without the hard stop
        x = np.zeros((3, 3))
        hyp, _ = rnnt_decode(rigged_emitter(seed=4), x, beam=1)
        assert len(hyp) <= 3 * 3

    def test_beam_matches_reference_beam(self):
        rng = np.random.default_rng(5)
        cases = [(sharp_model(seed=200 + i), rng.standard_normal((int(rng.integers(2, 8)), 3)))
                 for i in range(25)]
        cases.append((rigged_emitter(seed=4), np.zeros((3, 3))))
        cases += [(interchangeable_units(seed=300 + i), rng.standard_normal((5, 3)))
                  for i in range(8)]
        for model, x in cases:
            for beam in (2, 4, 10):
                got = rnnt_decode(model, x, beam=beam)
                want = reference_beam(model, x, beam)
                assert got[0] == want[0]
                assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_greedy_runs_match_reference_greedy(self):
        """Frame runs that end early, on the last frame, never, or at the cap."""
        rng = np.random.default_rng
        cases = {
            "one frame": [(toy_model(seed=i), rng(i).standard_normal((1, 3))) for i in range(6)],
            "last frame": [(toy_model(seed=32), rng(1032).standard_normal((4, 3))),
                           (toy_model(seed=19), rng(1069).standard_normal((6, 3)))],
            "all blank": [(toy_model(seed=16), rng(16).standard_normal((5, 3)))],
            "cap": [(rigged_emitter(seed=4), np.zeros((T, 3))) for T in (3, 4, 6)]
            + [(toy_model(seed=1), rng(1).standard_normal((5, 3)))],
        }
        for kind, pairs in cases.items():
            for model, x in pairs:
                frames = []
                want = reference_greedy(model, x, frames)
                got = rnnt_decode(model, x, beam=1)
                assert got[0] == want[0], kind
                assert got[1] == pytest.approx(want[1], abs=1e-9), kind
                T = len(x)
                if kind == "last frame":
                    assert frames[-1] == T - 1 and len(frames) < 3 * T
                elif kind == "all blank":
                    assert frames == []
                elif kind == "cap":
                    # The cap is reached before the last frame, so a run goes on past it.
                    assert len(frames) == 3 * T and frames[-1] < T - 1

    def test_greedy_evaluates_the_joint_once_per_label_plus_one(self, monkeypatch):
        calls = []
        log_probs = decoding._Scorer.log_probs

        def counted(scorer, t, prefixes):
            calls.append(t)
            return log_probs(scorer, t, prefixes)

        monkeypatch.setattr(decoding._Scorer, "log_probs", counted)
        rng = np.random.default_rng(6)
        for i in range(40):
            model = (toy_model, sharp_model, rigged_emitter)[i % 3](seed=400 + i)
            x = rng.standard_normal((int(rng.integers(1, 9)), 3))
            calls.clear()
            hyp, _ = rnnt_decode(model, x, beam=1)
            assert len(calls) <= len(hyp) + 1

    def test_beam_keeps_every_tie_at_the_cut(self):
        """All four units extend a prefix with one score, so more than `beam` tie at the cut."""
        rng = np.random.default_rng(8)
        emitted = 0
        for i in range(12):
            model = interchangeable_units(seed=500 + i)
            x = rng.standard_normal((int(rng.integers(2, 7)), 3))
            for beam in (2, 3):
                got = rnnt_decode(model, x, beam=beam)
                want = reference_beam(model, x, beam)
                assert got[0] == want[0]
                assert got[1] == pytest.approx(want[1], abs=1e-9)
                emitted += bool(got[0])
        assert emitted >= 6


@pytest.fixture(scope="module")
def decode_world(tmp_path_factory):
    """The fixed benchmark model and the first 20 test-cs utterances of its world."""
    root = tmp_path_factory.mktemp("decode-world")
    gen_corpus(CorpusSpec(seed=0, train_count=8, dev_count=8, test_count=300), root)
    ck = load_checkpoint(DECODE_MODEL)
    model = Model(ck.architecture(), params=ck.model_params())
    return model, load_corpus(root).split("test-cs")[:20]


def test_decode_model_matches_the_references(decode_world):
    """The fixed benchmark model decodes 20 test-cs utterances of its world as the references do."""
    model, utts = decode_world
    for utt in utts:
        for beam in (1, 10):
            got = rnnt_decode(model, utt.features, beam=beam)
            want = reference_greedy(model, utt.features) if beam == 1 else reference_beam(
                model, utt.features, beam)
            assert got[0] == want[0], (utt.uid, beam)
            assert got[1] == pytest.approx(want[1], abs=1e-9), (utt.uid, beam)


def test_beam_equals_the_step_by_step_ranking_bit_for_bit(decode_world, monkeypatch):
    """Ranking `done` once per frame, and the frontier only on ties at the cut, returns the
    (hyp, score) of ranking both after every step, under ==."""
    one_row_at_a_time(monkeypatch)
    rng = np.random.default_rng(9)
    cases = [(sharp_model(seed=600 + i), rng.standard_normal((int(rng.integers(2, 8)), 3)))
             for i in range(12)]
    cases += [(interchangeable_units(seed=700 + i), rng.standard_normal((5, 3))) for i in range(8)]
    cases += [(tied_emissions(seed=1000 + i), rng.standard_normal((int(rng.integers(2, 7)), 3)))
              for i in range(12)]
    cases += [(rigged_emitter(seed=4), np.zeros((T, 3))) for T in (3, 5)]
    model, utts = decode_world
    cases += [(model, utt.features) for utt in utts]
    for model, x in cases:
        for beam in (2, 3, 4, 10):
            assert rnnt_decode(model, x, beam=beam) == reference_step_beam(model, x, beam)


def test_top_ranks_by_score_then_prefix():
    prefixes = [(2,), (1, 5), (), (1,), (3,)]
    assert decoding._top(prefixes, [0.0, 0.0, 0.0, 0.0, 1.0], 4) == [4, 2, 3, 1]


def test_search_work_counts(decode_world, monkeypatch):
    """One prediction-net step per distinct prefix scored, and at most one ranking of the
    frame's finished hypotheses per frame.

    The sharp models' and the decode model's extension scores do not tie at the beam's cut,
    so there every `_top` call ranks `done`; units that share a column tie, and add
    rankings of the frontier.
    """
    advances, scored, ranks = [], set(), []
    advance, log_probs, top = decoding._Scorer._advance, decoding._Scorer.log_probs, decoding._top

    def counted(scorer, t, ids):
        scored.update(scorer.prefixes[i] for i in ids)
        return log_probs(scorer, t, ids)

    monkeypatch.setattr(decoding._Scorer, "_advance",
                        lambda scorer, *a: advances.append(1) or advance(scorer, *a))
    monkeypatch.setattr(decoding._Scorer, "log_probs", counted)
    monkeypatch.setattr(decoding, "_top", lambda *a: ranks.append(1) or top(*a))
    rng = np.random.default_rng(10)
    cases = [(sharp_model(seed=800 + i), rng.standard_normal((int(rng.integers(2, 8)), 3)), True)
             for i in range(12)]
    cases += [(interchangeable_units(seed=900 + i), rng.standard_normal((5, 3)), False)
              for i in range(4)]
    model, utts = decode_world
    cases += [(model, utt.features, True) for utt in utts]
    for model, x, tie_free in cases:
        for beam in (1, 4, 10):
            advances.clear(), scored.clear(), ranks.clear()
            rnnt_decode(model, x, beam=beam)
            assert len(advances) == len(scored)
            if tie_free:
                assert len(ranks) <= (len(x) if beam > 1 else 0)


@pytest.mark.parametrize("mixing", ["conv", "recurrent"])
def test_tape_free_inference_makes_no_tensors(mixing, monkeypatch, tmp_path):
    """Decoding, eval-ls and posterior dumps run on plain arrays, never on Tensors."""
    made = []
    init, emit = ad.Tensor.__init__, ad._emit
    monkeypatch.setattr(ad.Tensor, "__init__", lambda self, *a, **k: made.append(1) or init(
        self, *a, **k))
    monkeypatch.setattr(ad, "_emit", lambda *a: made.append(1) or emit(*a))
    model, vocab, x, y = checks.tiny_setup(mixing)
    ad.add(x, x)
    assert len(made) == 3  # the counters see both lifted operands and the emitted sum
    made.clear()
    for beam in (1, 10):
        rnnt_decode(model, x, beam=beam)
    metrics.eval_language_separation(model, [Utterance("u", x, y)], vocab)
    metrics.dump_frame_posteriors(model, x, tmp_path / "p.csv", vocab)
    assert made == []
