"""Greedy CTC decoding and greedy/beam transducer decoding.

Decoding is tape-free (plain numpy forward). The transducer beam search
is frame-synchronous: within a frame a hypothesis may emit repeatedly and
then takes the blank that advances time, and expansion stops once no
continuation can beat the beam's worst completed candidate. The searched
set always includes the pure-greedy chain, so the best beam score is
never below the greedy score, at any beam width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .alignments import BLANK, collapse

# Hard stop against degenerate emission loops.
MAX_EMITS_PER_FRAME_FACTOR = 3


@dataclass
class Hypothesis:
    prefix: tuple
    log_score: float
    dec_state: object  # (1, decoder_dim) tensor, evolves with emissions


def greedy_ctc_decode(logp):
    """Per-frame argmax, then collapse. Returns label ids in column space."""
    arr = logp.data if isinstance(logp, ad.Tensor) else np.asarray(logp)
    return collapse(tuple(int(k) for k in arr.argmax(axis=1)))


def _enc_rows(model, bound, x):
    h_enc, _, _ = model.encode_fused(bound, x)
    return h_enc


def _step_dist(model, bound, enc_t, h_dec):
    return model.joint_row(bound, enc_t, h_dec).data


def _greedy(model, bound, h_enc):
    T = h_enc.shape[0]
    cap = MAX_EMITS_PER_FRAME_FACTOR * T
    h_dec = model.decoder_step(bound, model.arch.start_token, None)
    prefix = []
    score = 0.0
    for t in range(T):
        enc_t = ad.index_select(h_enc, [t])
        while True:
            lp = _step_dist(model, bound, enc_t, h_dec)
            k = int(lp.argmax())
            if k == BLANK or len(prefix) >= cap:
                score += float(lp[BLANK])
                break
            prefix.append(k)
            score += float(lp[k])
            h_dec = model.decoder_step(bound, k, h_dec)
    return tuple(prefix), score


def _top(candidates, k):
    return sorted(candidates, key=lambda h: (-h.log_score, h.prefix))[:k]


def _beam(model, bound, h_enc, beam):
    T = h_enc.shape[0]
    cap = MAX_EMITS_PER_FRAME_FACTOR * T
    start = Hypothesis((), 0.0, model.decoder_step(bound, model.arch.start_token, None))
    hyps = [start]
    n_units = model.arch.n_units
    for t in range(T):
        enc_t = ad.index_select(h_enc, [t])
        done = []
        frontier = hyps
        while frontier:
            scored = []
            for h in frontier:
                lp = _step_dist(model, bound, enc_t, h.dec_state)
                done.append(Hypothesis(h.prefix, h.log_score + float(lp[BLANK]), h.dec_state))
                scored.append((h, lp))
            done = _top(done, beam)
            floor = done[-1].log_score if len(done) >= beam else -np.inf
            ext = []
            for h, lp in scored:
                if len(h.prefix) >= cap:
                    continue
                for k in range(1, n_units + 1):
                    s = h.log_score + float(lp[k])
                    if s > floor:
                        ext.append((h, k, s))
            ext = sorted(ext, key=lambda e: (-e[2], e[0].prefix + (e[1],)))[:beam]
            frontier = [
                Hypothesis(h.prefix + (k,), s, model.decoder_step(bound, k, h.dec_state))
                for h, k, s in ext
            ]
        hyps = done
    return _top(hyps, 1)[0]


def rnnt_decode(model, x, beam=1):
    """Best label sequence and its log-score; beam=1 is the greedy policy."""
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    bound = model.bind(None)
    h_enc = _enc_rows(model, bound, x)
    greedy = _greedy(model, bound, h_enc)
    if beam == 1:
        return greedy
    best = _beam(model, bound, h_enc, beam)
    if greedy[1] > best.log_score:
        return greedy
    return best.prefix, best.log_score


def decode_ctc_subnet(model, bound, x, lang, vocab):
    """Greedy sub-net transcript of one language head, as global unit ids."""
    h = model.encode(bound, x, "enc_m" if lang == "M" else "enc_e")
    local = greedy_ctc_decode(model.ctc_head(bound, h, lang))
    return tuple(vocab.to_global(lang, u) for u in local)
