"""Greedy CTC decoding and greedy/beam transducer decoding.

Decoding makes no Tensor. The encoders run tape-free on the plain arrays
of `model.params` (`Model.encode_fused`), and transducer search reads the
prediction and joint networks' arrays under the names `Model.predict` and
`Model.joint` use, the reference it is tested against. Per utterance
a scorer projects the encoder rows once, `E = h_enc @ joint.w_enc +
joint.b`, and caches per label prefix (the empty one is the start token)
the prediction-net state and its projection `d = state @ joint.w_dec`, one
prediction-net step per new prefix. Its one joint evaluation,
`log_softmax(tanh(E[t] + d) @ joint.w_out + joint.b_out)`, scores a frame
under each frontier prefix, or a run of frames under one prefix.

Greedy goes by frame runs: it scores the remaining frames under its prefix,
takes the blanks up to the first frame whose argmax is a label, emits it
there and rescores from that frame; past MAX_EMITS_PER_FRAME_FACTOR * T
labels the rest is blank. That is one joint evaluation per label, plus one.

The beam is frame-synchronous: in a frame a hypothesis may emit repeatedly
(up to the same cap), then takes the blank that advances time. Extensions
above the worst completed candidate survive; only survivors at or above the
beam-th best become prefixes. Ties sort by (-score, prefix), and prefixes
are never merged, so each score is one alignment path's. The searched set
includes the greedy chain, so the beam never scores below greedy.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .alignments import BLANK, collapse

# Hard stop against degenerate emission loops.
MAX_EMITS_PER_FRAME_FACTOR = 3


def greedy_ctc_decode(logp):
    """Per-frame argmax of a (T, C) log-posterior array, then collapse. Returns column ids."""
    return collapse(tuple(int(k) for k in np.asarray(logp).argmax(axis=1)))


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
        """(rows, V+1) log-distributions: frame t under each prefix, or a slice t under one."""
        d = np.array([self._projection(prefix) for prefix in prefixes])
        return ad.log_softmax_array(np.tanh(self.enc[t] + d) @ self.w_out + self.b_out, axis=1)


def _greedy(scorer, cap):
    prefix, score, t = (), 0.0, 0
    while True:
        lp = scorer.log_probs(slice(t, None), [prefix])
        best = lp.argmax(axis=1)
        emits = np.flatnonzero(best) if len(prefix) < cap else ()
        n = int(emits[0]) if len(emits) else len(lp)  # blanks before the next emission
        for s in lp[:n, BLANK].tolist():
            score += s
        if n == len(lp):
            return prefix, score
        prefix += (int(best[n]),)
        score += float(lp[n, best[n]])
        t += n


def _top(prefixes, scores, k):
    """Indices of the k best hypotheses, by score, then prefix."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], prefixes[i]))[:k]


def _beam(scorer, cap, beam):
    done, done_scores = [()], [0.0]
    for t in range(len(scorer.enc)):
        frontier, base = done, np.array(done_scores)
        done, done_scores = [], []
        while frontier:
            lp = scorer.log_probs(t, frontier)
            done += frontier
            done_scores += (base + lp[:, BLANK]).tolist()
            kept = _top(done, done_scores, beam)
            done, done_scores = [done[i] for i in kept], [done_scores[i] for i in kept]
            floor = done_scores[-1] if len(done) >= beam else -np.inf
            ext = base[:, None] + lp[:, 1:]
            if len(max(frontier, key=len)) >= cap:
                ext[[len(prefix) >= cap for prefix in frontier]] = -np.inf
            rows, cols = np.nonzero(ext > floor)
            base = ext[rows, cols]
            if len(base) > beam:
                # Only survivors at or above the beam-th best can enter the frontier.
                top = base >= np.partition(base, -beam)[-beam]
                rows, cols, base = rows[top], cols[top], base[top]
            frontier = [frontier[i] + (k + 1,) for i, k in zip(rows.tolist(), cols.tolist())]
            kept = _top(frontier, base.tolist(), beam)
            frontier, base = [frontier[i] for i in kept], base[kept]
    return done[0], done_scores[0]


def rnnt_decode(model, x, beam=1):
    """Best label sequence and its log-score; beam=1 is the greedy policy."""
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    h_enc, _ = model.encode_fused(model.params, x)
    cap = MAX_EMITS_PER_FRAME_FACTOR * len(h_enc)
    scorer = _Scorer(model, h_enc)
    greedy = _greedy(scorer, cap)
    if beam == 1:
        return greedy
    best = _beam(scorer, cap, beam)
    return greedy if greedy[1] > best[1] else best
