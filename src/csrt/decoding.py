"""Greedy CTC decoding and greedy/beam transducer decoding.

Decoding makes no Tensor. The encoders run tape-free on the plain arrays of
`model.params` (`Model.encode_fused` on `[x]`), and transducer search reads
the prediction and joint networks' arrays under the names `Model.predict` and
`Model.joint` use, the reference it is tested against. Per utterance a scorer
projects the encoder rows once, `E = h_enc @ joint.w_enc + joint.b`, and
numbers label prefixes in a trie of (parent id, label), id 0 the empty prefix
(the start token). Each id has one prediction-net step and its state's
projection `d = state @ joint.w_dec`. Its one joint evaluation,
`log_softmax(tanh(E[t] + d) @ joint.w_out + joint.b_out)`, scores a frame
under each frontier prefix, or a run of frames under one prefix.

Greedy goes by frame runs: it scores the remaining frames under its prefix,
takes the blanks up to the first frame whose argmax is a label, emits it
there and rescores from that frame; past MAX_EMITS_PER_FRAME_FACTOR * T
labels the rest is blank. That is one joint evaluation per label, plus one.

The beam is frame-synchronous: in a frame a hypothesis may emit repeatedly
(up to the same cap), then takes the blank that advances time. Extensions
above the floor, the beam-th best completed score of the frame so far,
survive; only survivors at or above the beam-th best become prefixes,
ranked by (-score, prefix) if ties leave more. Completed candidates are
ranked once, at the frame's end, which keeps what ranking after each step
would: a union's top k is the top k of its parts' top k. Prefixes are
never merged, so each score is one alignment path's. The searched set
includes the greedy chain, so the beam never scores below greedy.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .alignments import BLANK, collapse
from .errors import CsrtError

# Hard stop against degenerate emission loops.
MAX_EMITS_PER_FRAME_FACTOR = 3


def greedy_ctc_decode(logp):
    """Per-frame argmax of a (T, C) log-posterior array, then collapse. Returns column ids."""
    return collapse(tuple(int(k) for k in np.asarray(logp).argmax(axis=1)))


class _Scorer:
    """Joint log-distributions of one utterance; per prefix id, its prefix, state and `d`."""

    def __init__(self, model, h_enc):
        p = model.params
        self.enc = h_enc @ p["joint.w_enc"] + p["joint.b"]  # (T, J)
        self.w_out, self.b_out = p["joint.w_out"], p["joint.b_out"]
        self.w_dec = p["joint.w_dec"]
        self.embed, self.w_in = p["dec.embed"], p["dec.w_in"]
        self.u, self.b = p["dec.u"], p["dec.b"]
        state = self._advance(np.zeros(model.arch.decoder_dim), model.arch.start_token)
        self.prefixes, self.states, self.proj, self.ids = [()], [state], [state @ self.w_dec], {}

    def _advance(self, state, label):
        """One prediction-net step; the last row of `Model.predict` in numpy."""
        return np.tanh(self.embed[label] @ self.w_in + state @ self.u + self.b)

    def child(self, i, label):
        """Id of prefix i extended by `label`; a new id costs one prediction-net step."""
        j = self.ids.setdefault((i, label), len(self.prefixes))
        if j == len(self.prefixes):
            self.prefixes.append(self.prefixes[i] + (label,))
            self.states.append(self._advance(self.states[i], label))
            self.proj.append(self.states[j] @ self.w_dec)
        return j

    def log_probs(self, t, ids):
        """(rows, V+1) log-distributions: frame t under each prefix id, or a slice t under one."""
        d = np.array([self.proj[i] for i in ids])
        return ad.log_softmax_array(np.tanh(self.enc[t] + d) @ self.w_out + self.b_out, axis=1)


def _greedy(scorer, cap):
    i, score, t = 0, 0.0, 0
    while True:
        lp = scorer.log_probs(slice(t, None), [i])
        best = lp.argmax(axis=1)
        emits = best.nonzero()[0] if len(scorer.prefixes[i]) < cap else ()
        n = int(emits[0]) if len(emits) else len(lp)  # blanks before the next emission
        for s in lp[:n, BLANK].tolist():
            score += s
        if n == len(lp):
            return scorer.prefixes[i], score
        i = scorer.child(i, int(best[n]))
        score += float(lp[n, best[n]])
        t += n


def _top(prefixes, scores, k):
    """Indices of the k best hypotheses, by score, then prefix."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], prefixes[i]))[:k]


def _beam(scorer, cap, beam):
    prefixes, child = scorer.prefixes, scorer.child
    done, done_scores = [0], [0.0]
    for t in range(len(scorer.enc)):
        frontier, base = done, np.array(done_scores)
        done, done_scores = [], []
        while frontier:
            ext = base[:, None] + scorer.log_probs(t, frontier)
            done += frontier
            done_scores += ext[:, BLANK].tolist()
            floor = sorted(done_scores)[-beam] if len(done) >= beam else -np.inf
            ext = ext[:, 1:]
            if len(prefixes) > cap:  # else no prefix is as long as the cap
                ext[[len(prefixes[i]) >= cap for i in frontier]] = -np.inf
            rows, cols = (ext > floor).nonzero()
            base = ext[rows, cols]
            if len(base) > beam:
                # Only survivors at or above the beam-th best can enter the frontier.
                top = base >= np.partition(base, -beam)[-beam]
                rows, cols, base = rows[top], cols[top], base[top]
                if len(base) > beam:  # ties at the cut
                    keys = [prefixes[frontier[i]] + (k + 1,) for i, k in zip(rows.tolist(),
                                                                              cols.tolist())]
                    kept = _top(keys, base.tolist(), beam)
                    rows, cols, base = rows[kept], cols[kept], base[kept]
            frontier = [child(frontier[i], k + 1) for i, k in zip(rows.tolist(), cols.tolist())]
        kept = _top([prefixes[i] for i in done], done_scores, beam)
        done, done_scores = [done[i] for i in kept], [done_scores[i] for i in kept]
    return prefixes[done[0]], done_scores[0]


def rnnt_decode(model, x, beam=1):
    """Best label sequence and its log-score; beam=1 is the greedy policy."""
    if beam < 1:
        raise CsrtError(f"rnnt_decode: beam must be >= 1, got {beam}")
    if not np.isfinite(x).all():
        raise CsrtError("rnnt_decode: features hold a non-finite value")
    [h_enc], _ = model.encode_fused(model.params, [x])
    cap = MAX_EMITS_PER_FRAME_FACTOR * len(h_enc)
    scorer = _Scorer(model, h_enc)
    greedy = _greedy(scorer, cap)
    if beam == 1:
        return greedy
    best = _beam(scorer, cap, beam)
    return greedy if greedy[1] > best[1] else best
