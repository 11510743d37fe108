"""Error-rate scoring and the language-separation evaluation.

error_stats computes a minimal Levenshtein alignment; among minimal
alignments it prefers the one with fewest insertions, which makes the
S/I/D split deterministic. Corpus-level rates are total errors over total
reference tokens. When a projected reference is empty, its utterance is
excluded from the error-rate aggregate but every hypothesis token still
counts toward the insertion rate: leaked tokens are exactly what the
insertion rate is meant to expose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignments import mask_labels
from .decoding import greedy_ctc_decode, rnnt_decode
from .errors import CsrtError
from .model import write_atomic


@dataclass(frozen=True)
class ErrorStats:
    sub: int = 0
    ins: int = 0
    dele: int = 0
    ref_len: int = 0

    @property
    def errors(self):
        return self.sub + self.ins + self.dele

    @property
    def rate(self):
        return self.errors / max(1, self.ref_len)

    def __add__(self, other):
        return ErrorStats(self.sub + other.sub, self.ins + other.ins, self.dele + other.dele,
                          self.ref_len + other.ref_len)


def error_stats(hyp, ref):
    """Minimal-edit S/I/D counts of hyp against ref.

    Minimized lexicographically by (total cost, insertions); deletions and
    substitutions then follow from the length difference.
    """
    hyp = tuple(hyp)
    ref = tuple(ref)
    H, R = len(hyp), len(ref)
    # dp[j] = (cost, insertions) for the current hyp prefix vs ref[:j].
    dp = [(j, 0) for j in range(R + 1)]
    for i in range(1, H + 1):
        prev_diag = dp[0]
        dp[0] = (i, i)
        for j in range(1, R + 1):
            up_cost, up_ins = dp[j]
            left_cost, left_ins = dp[j - 1]
            diag_cost, diag_ins = prev_diag
            if hyp[i - 1] == ref[j - 1]:
                best = (diag_cost, diag_ins)
            else:
                best = (diag_cost + 1, diag_ins)
            cand = (up_cost + 1, up_ins + 1)  # insertion of hyp[i-1]
            if cand < best:
                best = cand
            cand = (left_cost + 1, left_ins)  # deletion of ref[j-1]
            if cand < best:
                best = cand
            prev_diag = dp[j]
            dp[j] = best
    cost, ins = dp[R]
    dele = ins - (H - R)
    sub = cost - ins - dele
    return ErrorStats(sub=sub, ins=ins, dele=dele, ref_len=R)


@dataclass(frozen=True)
class MixedScore:
    """Per-utterance mixed-token stats plus per-language projections.

    A projection whose reference is empty has ref_len 0 and no rate; each
    hypothesis token of that language counts as an insertion.
    """

    mer: ErrorStats
    m: ErrorStats
    e: ErrorStats


def mixed_error_rate(hyp, ref, vocab):
    """Mixed error stats over all tokens, plus M (CER) and E (WER) projections."""
    m, e = (
        error_stats(mask_labels(hyp, lang, vocab), mask_labels(ref, lang, vocab))
        for lang in ("M", "E")
    )
    return MixedScore(mer=error_stats(hyp, ref), m=m, e=e)


@dataclass
class SplitReport:
    """Corpus-level error rates for one decoded split."""

    mer: ErrorStats
    cer: ErrorStats  # language-M projection
    wer: ErrorStats  # language-E projection
    n_utts: int


def evaluate_split(model, utts, vocab, beam):
    """Beam-decode a split and aggregate MER plus per-language projections.

    Returns (SplitReport, hyps) where hyps maps utterance id to the decoded
    global label ids.
    """
    mer = cer = wer = ErrorStats()
    hyps = {}
    for utt in utts:
        hyp, _ = rnnt_decode(model, utt.features, beam=beam)
        hyps[utt.uid] = hyp
        score = mixed_error_rate(hyp, utt.labels, vocab)
        mer, cer, wer = mer + score.mer, cer + score.m, wer + score.e
    return SplitReport(mer=mer, cer=cer, wer=wer, n_utts=len(utts)), hyps


def eval_language_separation(model, cs_utts, vocab):
    """Score each CTC sub-net against its language's masked reference.

    Returns {'M': {'rate': ..., 'ins': ..., 'ref_len': ...}, 'E': ...}; `ins` is
    insertions per reference token and captures other-language leakage. On a split
    with no reference token in the language (`ref_len` 0, e.g. E on test-mono-m)
    it is the count of inserted tokens, that leakage itself.
    """
    if not model.arch.has_ctc_heads:
        raise CsrtError("language-separation evaluation needs a variant with CTC heads")
    totals = {"M": ErrorStats(), "E": ErrorStats()}
    leaked = {"M": 0, "E": 0}
    for utt in cs_utts:
        for lang, logp in zip("ME", model.subnets(model.params, [(k, utt.features) for k in "ME"])):
            hyp = tuple(vocab.to_global(lang, u) for u in greedy_ctc_decode(logp))
            ref = mask_labels(utt.labels, lang, vocab)
            stats = error_stats(hyp, ref)
            if ref:
                totals[lang] = totals[lang] + stats
            else:
                leaked[lang] += stats.ins
    return {lang: {"rate": t.rate, "ins": (t.ins + leaked[lang]) / max(1, t.ref_len),
                   "ref_len": t.ref_len} for lang, t in totals.items()}


def dump_frame_posteriors(model, x, out_path, vocab):
    """Write one CSV row per frame: blank mass, unit mass, top unit, per language.

    Plot-ready view of the two monolingual heads over one utterance, written atomically.
    """
    if not model.arch.has_ctc_heads:
        raise CsrtError("posterior dump needs a variant with CTC heads")
    heads = [np.exp(logp) for logp in model.subnets(model.params, [("M", x), ("E", x)])]
    lines = ["frame,m_blank,m_units,m_top,e_blank,e_units,e_top"]
    for t in range(len(heads[0])):
        cells = [str(t)]
        for lang, p in zip("ME", (head[t] for head in heads)):
            top = vocab.surface(vocab.to_global(lang, 1 + int(p[1:].argmax())))
            cells += [f"{p[0]:.9f}", f"{p[1:].sum():.9f}", top]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    write_atomic(out_path, lambda tmp: tmp.write_text(text, encoding="utf-8"))
    return out_path


def _percent(rate, ref_len):
    """A report cell; a rate over an empty reference (e.g. WER on a mono-M split) prints as '-'."""
    return f"{100 * rate:>7.2f}" if ref_len else f"{'-':>7}"


def format_split_report(title, report):
    """Plain-text metric row in the shape of the paper-style results table."""
    cells = [_percent(s.rate, s.ref_len) for s in (report.mer, report.cer, report.wer)]
    return (f"{'Split':<14} {'Utts':>5} {'MER':>7} {'CER':>7} {'WER':>7}\n"
            f"{title:<14} {report.n_utts:>5} " + " ".join(cells))


def format_separation_report(results):
    lines = [f"{'Sub-net':<10} {'Rate':>7} {'INS':>7}"]
    for lang, name in (("M", "M (CER)"), ("E", "E (WER)")):
        r = results[lang]  # with no reference token, INS is the count of inserted tokens
        ins = _percent(r["ins"], r["ref_len"]) if r["ref_len"] else f"{r['ins']:>7.0f}"
        lines.append(f"{name:<10} {_percent(r['rate'], r['ref_len'])} {ins}")
    return "\n".join(lines)
