import numpy as np
import pytest

from csrt import autodiff as ad
from csrt.alignments import BLANK, collapse
from csrt.decoding import greedy_ctc_decode, rnnt_decode
from csrt.model import Architecture, Model


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


def reference_greedy(model, x):
    """Independent greedy policy: emit while the argmax is non-blank."""
    bound = model.bind(None)
    h_enc, _, _ = model.encode_fused(bound, x)
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
    bound = model.bind(None)
    h_enc, _, _ = model.encode_fused(bound, x)
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


def rigged_emitter(seed):
    """A toy model whose joint always prefers unit 1, so only the cap stops emission."""
    model = toy_model(seed=seed)
    model.params["joint.b_out"] = np.array([-1e3, 10.0, 0.0, 0.0, 0.0])
    model.params["joint.w_out"] = np.zeros_like(model.params["joint.w_out"])
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

    Hypotheses that differ only in which unit they emitted score exactly
    alike, so only the (-score, prefix) tie-break tells them apart.
    """
    model = sharp_model(seed)
    p = model.params
    p["dec.embed"][2:5] = p["dec.embed"][1]
    p["joint.w_out"][:, 2:] = p["joint.w_out"][:, 1:2]
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
        with pytest.raises(ValueError):
            rnnt_decode(toy_model(seed=0), np.zeros((2, 3)), beam=0)

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
