"""Differentiable CTC and transducer losses, with brute-force oracles.

Each loss takes a batch, lists of per-utterance log-posteriors and labels,
and records one hand-differentiated node: the summed negative
log-likelihood. Its one recursion runs a single frame loop over 2B padded
rows, utterance b's lattice at row b and the same lattice reversed within
its own T_b and S_b (or U_b) at row B + b, so one pass yields alpha and,
flipped back, beta. That pass also computes the gradient, the negative
occupancy alpha*beta/Z, so the node keeps only the gradients and backward
scales them. The oracles recompute the losses by exhaustive enumeration.

Label arguments are column indices of the posterior matrix (blank is
column 0), so the same code serves a monolingual head and the bilingual
joint output without translation.
"""

from __future__ import annotations

import numpy as np

from . import autodiff
from .alignments import (
    BLANK,
    MAX_ORACLE_V,
    enumerate_ctc_alignments,
    enumerate_rnnt_paths,
    min_ctc_length,
)
from .errors import CsrtError, InfeasibleTargetError, ShapeMismatchError

NEG_INF = -np.inf


def _extended_targets(y):
    ext = [BLANK]
    for u in y:
        ext.extend((u, BLANK))
    return np.asarray(ext, dtype=np.intp)


def _batch(name, logps, ys, ndim):
    """Lifted posteriors and labels, checked, and whether beta and gradients are needed."""
    logps = [autodiff._lift(lp) for lp in logps]
    ys = [tuple(int(u) for u in y) for y in ys]
    if not logps or len(logps) != len(ys):
        raise ShapeMismatchError(f"{name}: {len(logps)} posteriors for {len(ys)} label sequences")
    for b, (lp, y) in enumerate(zip(logps, ys)):
        if lp.data.ndim != ndim:
            raise ShapeMismatchError(f"{name}: utterance {b}: posteriors must be {ndim}-d, "
                                     f"got {lp.shape}")
        if lp.shape[0] == 0:
            raise ShapeMismatchError(f"{name}: utterance {b}: posteriors have zero frames")
        if any(not 1 <= u < lp.shape[-1] for u in y):
            raise CsrtError(f"{name}: utterance {b}: label outside columns "
                            f"1..{lp.shape[-1] - 1}: {y}")
    return logps, ys, any(lp.tape is not None for lp in logps)


def _stacked(blocks, fill, reverse):
    """(T, R, W) array of 2-d blocks padded with `fill`: block b at row b and, if
    `reverse`, flipped within its own extents at row B + b. Padding lies past
    every real entry, so no recursion carries it into one."""
    B = len(blocks)
    out = np.full((max(x.shape[0] for x in blocks), B * (1 + reverse),
                   max(x.shape[1] for x in blocks)), fill)
    for b, x in enumerate(blocks):
        out[: x.shape[0], b, : x.shape[1]] = x
        if reverse:
            out[: x.shape[0], B + b, : x.shape[1]] = x[::-1, ::-1]
    return out


def _record(logps, nlls, grads):
    """One node: the summed NLL; backward scales the stored gradients in place."""

    def grad_fn(g):
        for grad in grads:
            grad *= g
        return grads

    return autodiff.record_custom(np.asarray(sum(nlls)), logps, grad_fn)


def _ctc_arrivals(emit, ext):
    """Log mass arriving at each (t, row, s) before frame t's emission.

    alpha = arrive + emit. A reversed row (ext reversed too) has the same
    skip rule, so its arrivals are beta flipped in t and s.
    """
    T, R, S = emit.shape
    # Skip transition s-2 -> s is allowed into a label state that differs
    # from the previous label state.
    skip_ok = np.zeros((R, S), dtype=bool)
    skip_ok[:, 2:] = (ext[:, 2:] != BLANK) & (ext[:, 2:] != ext[:, :-2])
    arrive = np.full((T, R, S), NEG_INF)
    arrive[0, :, :2] = 0.0
    step = np.full((R, S), NEG_INF)
    skip = np.full((R, S), NEG_INF)
    for t in range(1, T):
        prev = arrive[t - 1] + emit[t - 1]
        step[:, 1:] = prev[:, :-1]
        skip[:, 2:] = prev[:, :-2]
        np.logaddexp(prev, step, out=arrive[t])
        np.logaddexp(arrive[t], skip, out=arrive[t], where=skip_ok)
    return arrive


def ctc_loss(logps, ys):
    """Summed negative log-likelihood of each ys[b] under logps[b] (T_b x V_b+1).

    Differentiable when the posteriors are tape-recorded. Raises
    InfeasibleTargetError, naming the utterance, when a T_b is shorter than
    the minimal alignment for its labels, or on a tape when every path
    crosses a -inf entry (without a tape, that loss is +inf).
    """
    logps, ys, need_grad = _batch("ctc_loss", logps, ys, 2)
    for b, (lp, y) in enumerate(zip(logps, ys)):
        if lp.shape[0] < min_ctc_length(y):
            raise InfeasibleTargetError(f"ctc_loss: utterance {b}: no length-{lp.shape[0]} "
                                        f"alignment exists for {y} (needs {min_ctc_length(y)})")
    exts = [_extended_targets(y) for y in ys]
    emit = _stacked([lp.data[:, ext] for lp, ext in zip(logps, exts)], NEG_INF, need_grad)
    arrive = _ctc_arrivals(emit, _stacked([ext[None] for ext in exts], BLANK, need_grad)[0])
    nlls, grads = [], []
    for b, (lp, ext) in enumerate(zip(logps, exts)):
        T, S = lp.shape[0], ext.size
        alpha = arrive[:T, b, :S] + emit[:T, b, :S]
        log_total = alpha[T - 1, S - 1]
        if S > 1:
            log_total = np.logaddexp(log_total, alpha[T - 1, S - 2])
        nlls.append(-log_total)
        if need_grad:
            if log_total == NEG_INF:
                raise InfeasibleTargetError(f"ctc_loss: utterance {b}: {ys[b]} has probability 0")
            # beta[t, s] covers frames t+1..T-1: frame t's emission is in alpha.
            beta = arrive[T - 1 :: -1, len(ys) + b, S - 1 :: -1]
            occupancy = np.exp(alpha + beta - log_total)  # (T, S)
            grad = np.zeros_like(lp.data)
            np.add.at(grad, (np.arange(T)[:, None], ext[None, :]), occupancy)
            grads.append(-grad)
    return _record(logps, nlls, grads)


def _rnnt_alpha(down_w, emit, start):
    """Log mass reaching each (t, row, u), with start[row] entering at (0, 0).

    down_w[t] weighs the blank edges from frame t to t+1. On a row holding
    the lattice reversed in t and u, with the final blank as its start, it
    yields beta flipped in t and u.
    """
    T, R, L = emit.shape
    alpha = np.empty((T, R, L + 1))
    down = np.full((R, L + 1), NEG_INF)
    down[:, 0] = start
    # Within a frame only emissions move right; fold them with a prefix
    # log-sum-exp: alpha[t,u] = c[u] + LSE_{k<=u}(down[k] - c[k]), where c is
    # the cumulative emission score. A -inf emission counts as 0 in c and
    # restarts the prefix after its edge, so down - c never takes -inf - -inf.
    blocked = emit == NEG_INF
    c = np.zeros((T, R, L + 1))
    np.cumsum(np.where(blocked, 0.0, emit), axis=2, out=c[:, :, 1:])
    restarts = {}  # t -> {row: starts of its prefix segments}, for rows with a blocked edge
    for t, r, u in zip(*np.nonzero(blocked)):
        restarts.setdefault(int(t), {}).setdefault(int(r), [0]).append(int(u) + 1)
    for t in range(T):
        if t:
            down = alpha[t - 1] + down_w[t - 1]
        x = down - c[t]
        np.logaddexp.accumulate(x, axis=1, out=alpha[t])
        alpha[t] += c[t]
        for r, starts in restarts.get(t, {}).items():
            for lo, hi in zip(starts, starts[1:] + [L + 1]):
                alpha[t, r, lo:hi] = c[t, r, lo:hi] + np.logaddexp.accumulate(x[r, lo:hi])
    return alpha


def rnnt_loss(logps, ys):
    """Summed negative log-likelihood of each ys[b] under logps[b] (T_b x L_b+1 x V_b+1).

    Every y is feasible for T_b >= 1. Differentiable when the lattices are
    tape-recorded; there, as in ctc_loss, a y whose every path crosses a -inf
    entry raises InfeasibleTargetError (without a tape, its loss is +inf).
    """
    logps, ys, need_grad = _batch("rnnt_loss", logps, ys, 3)
    for b, (lp, y) in enumerate(zip(logps, ys)):
        if lp.shape[1] != len(y) + 1:
            raise ShapeMismatchError(f"rnnt_loss: utterance {b}: lattice U={lp.shape[1]} "
                                     f"does not fit L={len(y)} labels")
    labs = [np.asarray(y, dtype=np.intp) for y in ys]
    blanks = [lp.data[:, :, BLANK] for lp in logps]  # (T, U) each
    emits = [lp.data[:, np.arange(lab.size), lab] for lp, lab in zip(logps, labs)]  # (T, L)
    # Rows start at 0, reversed rows at their final blank; zero padding stays finite.
    start = np.concatenate([np.zeros(len(ys)), [x[-1, -1] for x in blanks]][: 1 + need_grad])
    reach = _rnnt_alpha(_stacked([x[:-1] for x in blanks], 0.0, need_grad),
                        _stacked(emits, 0.0, need_grad), start)
    nlls, grads = [], []
    for b, (lp, lab, blank, emit) in enumerate(zip(logps, labs, blanks, emits)):
        T, U = blank.shape
        alpha = reach[:T, b, :U]
        log_total = alpha[T - 1, U - 1] + blank[T - 1, U - 1]
        nlls.append(-log_total)
        if not need_grad:
            continue
        if log_total == NEG_INF:
            raise InfeasibleTargetError(f"rnnt_loss: utterance {b}: {ys[b]} has probability 0")
        # beta[t, u] is the log mass from (t, u) to the end, final blank included.
        beta = reach[T - 1 :: -1, len(ys) + b, U - 1 :: -1]
        grad = np.zeros_like(lp.data)
        # Blank edge (t,u) -> (t+1,u); at the top-right corner it terminates.
        beta_after_blank = np.concatenate([beta[1:], np.full((1, U), NEG_INF)])
        beta_after_blank[T - 1, U - 1] = 0.0
        grad[:, :, BLANK] = -np.exp(alpha + blank + beta_after_blank - log_total)
        if U > 1:
            occ_emit = np.exp(alpha[:, :-1] + emit + beta[:, 1:] - log_total)
            grad[np.arange(T)[:, None], np.arange(U - 1)[None, :], lab[None, :]] -= occ_emit
        grads.append(grad)
    return _record(logps, nlls, grads)


def ctc_loss_oracle(logp, y):
    """Brute-force -log sum over all enumerated alignments. No gradient."""
    lp = autodiff._lift(logp).data
    y = tuple(int(u) for u in y)
    _check_oracle_vocab(lp.shape[-1])
    terms = []
    for z in enumerate_ctc_alignments(y, lp.shape[0]):
        terms.append(sum(lp[t, s] for t, s in enumerate(z)))
    return -_logsumexp(terms)


def rnnt_loss_oracle(logp, y):
    """Brute-force -log sum over all enumerated transducer paths. No gradient."""
    lp = autodiff._lift(logp).data
    y = tuple(int(u) for u in y)
    _check_oracle_vocab(lp.shape[-1])
    T = lp.shape[0]
    terms = []
    for path in enumerate_rnnt_paths(y, T):
        t = u = 0
        score = 0.0
        for step in path:
            if step == BLANK:
                score += lp[t, u, BLANK]
                t += 1
            else:
                score += lp[t, u, step]
                u += 1
        terms.append(score)
    return -_logsumexp(terms)


def _check_oracle_vocab(v1):
    if v1 - 1 > MAX_ORACLE_V:
        raise CsrtError(f"oracle capped at |V| <= {MAX_ORACLE_V}, got {v1 - 1}")


def _logsumexp(values):
    arr = np.asarray(values, dtype=np.float64)
    m = arr.max()
    if not np.isfinite(m):
        return m
    return m + np.log(np.exp(arr - m).sum())


def ls_loss(l_rnnt, l_ctc_m, l_ctc_e, lam):
    """Multi-task combination: lam * rnnt + (1 - lam) * (ctc_m + ctc_e).

    The endpoints reduce exactly: lam=1 returns the transducer loss tensor
    unchanged and lam=0 the CTC sum, so endpoint training trajectories are
    bit-identical to the single-loss ones.
    """
    if not 0.0 <= lam <= 1.0:
        raise CsrtError(f"ls_loss: lambda {lam} outside [0, 1]")
    if lam == 1.0:
        return l_rnnt
    ctc = autodiff.add(l_ctc_m, l_ctc_e)
    if lam == 0.0:
        return ctc
    return autodiff.add(autodiff.mul(l_rnnt, lam), autodiff.mul(ctc, 1.0 - lam))
