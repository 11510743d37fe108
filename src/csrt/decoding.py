"""Greedy CTC decoding and greedy/beam transducer decoding.

Transducer search runs on plain numpy arrays read from `model.params`
under the names `Model.predict` and `Model.joint` use, and those two
methods are the reference it is tested against; only the encoder goes
through the (tape-free) Tensor forward. Per utterance, a scorer projects
the encoder rows once, `E = h_enc @ joint.w_enc + joint.b`, and keeps a
cache keyed by label prefix (the empty prefix is the start token): each
entry holds the prediction-net state after that prefix and the state's
`@ joint.w_dec` projection. The cache fills lazily, one prediction-net
update per prefix (the one-step form of `Model.predict`), and is shared by
the greedy pass and the beam. At frame t the scorer evaluates every
frontier hypothesis at once, `log_softmax(tanh(E[t] + D) @ joint.w_out +
joint.b_out)` over the stack D of cached projections; greedy is the
one-hypothesis case.

The beam search is frame-synchronous: within a frame a hypothesis may emit
repeatedly (at most MAX_EMITS_PER_FRAME_FACTOR * T labels in all) and then
takes the blank that advances time, and expansion stops once no
continuation can beat the beam's worst completed candidate. Ties sort by
(-score, prefix), and hypotheses that share a prefix are never merged, so
every score is the score of one alignment path. The searched set always
includes the pure-greedy chain, so the best beam score is never below the
greedy score, at any beam width.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .alignments import BLANK, collapse

# Hard stop against degenerate emission loops.
MAX_EMITS_PER_FRAME_FACTOR = 3


def greedy_ctc_decode(logp):
    """Per-frame argmax, then collapse. Returns label ids in column space."""
    return collapse(tuple(int(k) for k in ad._lift(logp).data.argmax(axis=1)))


class _Scorer:
    """Joint log-distributions of one utterance, with a prefix-keyed cache."""

    def __init__(self, model, h_enc):
        p = model.params
        self.enc = h_enc @ p["joint.w_enc"] + p["joint.b"]  # (T, J)
        self.w_out, self.b_out = p["joint.w_out"], p["joint.b_out"]
        self.w_dec = p["joint.w_dec"]
        self.embed, self.w_in = p["dec.embed"], p["dec.w_in"]
        self.u, self.b = p["dec.u"], p["dec.b"]
        state = self._advance(np.zeros(model.arch.decoder_dim), model.arch.start_token)
        self.cache = {(): (state, state @ self.w_dec)}  # prefix -> (state, projection)

    def _advance(self, state, label):
        """One prediction-net step; the last row of `Model.predict` in numpy."""
        return np.tanh(self.embed[label] @ self.w_in + state @ self.u + self.b)

    def _projection(self, prefix):
        hit = self.cache.get(prefix)
        if hit is None:
            # A prefix is scored only after its parent was, so the parent is cached.
            state = self._advance(self.cache[prefix[:-1]][0], prefix[-1])
            hit = self.cache[prefix] = (state, state @ self.w_dec)
        return hit[1]

    def log_probs(self, t, prefixes):
        """(len(prefixes), V+1) log-distributions at frame t, one row per prefix."""
        d = np.array([self._projection(prefix) for prefix in prefixes])
        return ad.log_softmax_array(np.tanh(self.enc[t] + d) @ self.w_out + self.b_out, axis=1)


def _greedy(scorer, T, cap):
    prefix = ()
    score = 0.0
    for t in range(T):
        while True:
            lp = scorer.log_probs(t, [prefix])[0]
            k = int(lp.argmax())
            if k == BLANK or len(prefix) >= cap:
                score += float(lp[BLANK])
                break
            prefix += (k,)
            score += float(lp[k])
    return prefix, score


def _top(hyps, k):
    """The k best (prefix, score) pairs, by score, then prefix."""
    return sorted(hyps, key=lambda h: (-h[1], h[0]))[:k]


def _beam(scorer, T, cap, beam):
    hyps = [((), 0.0)]
    for t in range(T):
        done = []
        frontier = hyps
        while frontier:
            lp = scorer.log_probs(t, [prefix for prefix, _ in frontier])
            base = np.array([score for _, score in frontier])
            ended = (base + lp[:, BLANK]).tolist()
            done = _top(done + [(prefix, s) for (prefix, _), s in zip(frontier, ended)], beam)
            floor = done[-1][1] if len(done) >= beam else -np.inf
            ext = base[:, None] + lp[:, 1:]
            keep = ext > floor
            keep[[len(prefix) >= cap for prefix, _ in frontier]] = False
            rows, cols = np.nonzero(keep)
            frontier = _top(
                [
                    (frontier[i][0] + (k + 1,), s)
                    for i, k, s in zip(rows.tolist(), cols.tolist(), ext[rows, cols].tolist())
                ],
                beam,
            )
        hyps = done
    return _top(hyps, 1)[0]


def rnnt_decode(model, x, beam=1):
    """Best label sequence and its log-score; beam=1 is the greedy policy."""
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    h_enc, _, _ = model.encode_fused(model.bind(None), x)
    T = h_enc.shape[0]
    cap = MAX_EMITS_PER_FRAME_FACTOR * T
    scorer = _Scorer(model, h_enc.data)
    greedy = _greedy(scorer, T, cap)
    if beam == 1:
        return greedy
    best = _beam(scorer, T, cap, beam)
    return greedy if greedy[1] > best[1] else best


def decode_ctc_subnet(model, bound, x, lang, vocab):
    """Greedy sub-net transcript of one language head, as global unit ids."""
    local = greedy_ctc_decode(model.subnet(bound, x, lang))
    return tuple(vocab.to_global(lang, u) for u in local)
