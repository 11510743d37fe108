"""Differentiable CTC and transducer losses, with brute-force oracles.

Both losses run the standard log-space forward recursion and register a
single hand-differentiated node on the tape: the gradient with respect to
the input log-posteriors is the negative lattice occupancy, obtained from
a forward-backward pass. The oracles below recompute the same quantities
by exhaustive enumeration and exist purely to check the recursions.

Label arguments are column indices of the posterior matrix (blank is
column 0), so the same code serves a monolingual head and the bilingual
joint output without translation.
"""

from __future__ import annotations

import numpy as np

from . import autodiff
from .alignments import (
    BLANK,
    enumerate_ctc_alignments,
    enumerate_rnnt_paths,
    min_ctc_length,
)
from .autodiff import Tensor
from .errors import CsrtError, InfeasibleTargetError, ShapeMismatchError

NEG_INF = -np.inf


def _as_array(logp):
    return logp.data if isinstance(logp, Tensor) else np.asarray(logp, dtype=np.float64)


def _extended_targets(y):
    ext = [BLANK]
    for u in y:
        ext.extend((u, BLANK))
    return np.asarray(ext, dtype=np.intp)


def _ctc_alpha(lp, ext):
    """Forward lattice over augmented states; alpha[t, s] includes frame t's emission."""
    T = lp.shape[0]
    S = ext.shape[0]
    emit = lp[:, ext]  # (T, S)
    # Skip transition s-2 -> s is allowed into a label state that differs
    # from the previous label state.
    skip_ok = np.zeros(S, dtype=bool)
    if S > 2:
        skip_ok[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = emit[0, 0]
    if S > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, T):
        prev = alpha[t - 1]
        stay = prev
        step = np.concatenate(([NEG_INF], prev))[:S]
        acc = np.logaddexp(stay, step)
        skip = np.concatenate(([NEG_INF, NEG_INF], prev))[:S]
        acc = np.where(skip_ok, np.logaddexp(acc, skip), acc)
        alpha[t] = acc + emit[t]
    return alpha, emit, skip_ok


def _ctc_beta(lp, ext, skip_ok):
    """Backward lattice; beta[t, s] covers frames t+1..T (excludes frame t's emission)."""
    T = lp.shape[0]
    S = ext.shape[0]
    beta = np.full((T, S), NEG_INF)
    beta[T - 1, S - 1] = 0.0
    if S > 1:
        beta[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + lp[t + 1, ext]
        stay = nxt
        step = np.concatenate((nxt, [NEG_INF]))[1 : S + 1]
        acc = np.logaddexp(stay, step)
        skip = np.concatenate((nxt, [NEG_INF, NEG_INF]))[2 : S + 2]
        skip_from = np.zeros(S, dtype=bool)
        if S > 2:
            skip_from[:-2] = skip_ok[2:]
        beta[t] = np.where(skip_from, np.logaddexp(acc, skip), acc)
    return beta


def ctc_loss(logp, y):
    """Negative log-likelihood of y under per-frame log-posteriors (T x V+1).

    Differentiable when logp is tape-recorded. Raises InfeasibleTargetError
    when T is shorter than the minimal alignment for y.
    """
    lp = _as_array(logp)
    y = tuple(int(u) for u in y)
    if lp.ndim != 2:
        raise ShapeMismatchError(f"ctc_loss: posteriors must be 2-d, got {lp.shape}")
    T, V1 = lp.shape
    if any(not 1 <= u < V1 for u in y):
        raise CsrtError(f"ctc_loss: label outside columns 1..{V1 - 1}: {y}")
    if T < min_ctc_length(y):
        raise InfeasibleTargetError(
            f"no length-{T} alignment exists for {y} (needs {min_ctc_length(y)})"
        )
    ext = _extended_targets(y)
    S = ext.shape[0]
    alpha, emit, skip_ok = _ctc_alpha(lp, ext)
    log_total = alpha[T - 1, S - 1]
    if S > 1:
        log_total = np.logaddexp(log_total, alpha[T - 1, S - 2])
    loss = np.asarray(-log_total)

    if not isinstance(logp, Tensor) or logp.tape is None:
        return Tensor(loss)

    def grad_fn(g):
        beta = _ctc_beta(lp, ext, skip_ok)
        occupancy = np.exp(alpha + beta - log_total)  # (T, S)
        grad = np.zeros_like(lp)
        rows = np.arange(T)[:, None]
        np.add.at(grad, (rows, ext[None, :]), occupancy)
        return (-grad * g,)

    return autodiff.record_custom(loss, (logp,), grad_fn)


def _rnnt_lattice(lp, y):
    lab = np.asarray(y, dtype=np.intp)
    T, U, V1 = lp.shape
    blank = lp[:, :, BLANK]  # (T, U)
    emit = lp[:, np.arange(U - 1), lab] if U > 1 else np.zeros((T, 0))  # (T, L)
    return blank, emit


def _rnnt_alpha(blank, emit):
    T, U = blank.shape
    alpha = np.full((T, U), NEG_INF)
    for t in range(T):
        if t == 0:
            down = np.full(U, NEG_INF)
            down[0] = 0.0
        else:
            down = alpha[t - 1] + blank[t - 1]
        # Within a frame only emissions move right; fold them with a
        # prefix log-sum-exp: alpha[t,u] = c[u] + LSE_{k<=u}(down[k] - c[k]),
        # where c is the cumulative emission score.
        c = np.concatenate(([0.0], np.cumsum(emit[t])))
        alpha[t] = c + np.logaddexp.accumulate(down - c)
    return alpha


def _rnnt_beta(blank, emit):
    T, U = blank.shape
    beta = np.full((T, U), NEG_INF)
    for t in range(T - 1, -1, -1):
        if t == T - 1:
            up = np.full(U, NEG_INF)
            up[U - 1] = blank[t, U - 1]
        else:
            up = blank[t] + beta[t + 1]
        rc = np.concatenate(([0.0], np.cumsum(emit[t][::-1])))
        beta[t] = (rc + np.logaddexp.accumulate(up[::-1] - rc))[::-1]
    return beta


def rnnt_loss(logp, y):
    """Negative log-likelihood of y under a (T x L+1 x V+1) joint lattice.

    Every y is feasible for T >= 1. Differentiable when logp is
    tape-recorded.
    """
    lp = _as_array(logp)
    y = tuple(int(u) for u in y)
    if lp.ndim != 3:
        raise ShapeMismatchError(f"rnnt_loss: lattice must be 3-d, got {lp.shape}")
    T, U, V1 = lp.shape
    if U != len(y) + 1:
        raise ShapeMismatchError(f"rnnt_loss: lattice U={U} does not fit L={len(y)} labels")
    if any(not 1 <= u < V1 for u in y):
        raise CsrtError(f"rnnt_loss: label outside columns 1..{V1 - 1}: {y}")
    blank, emit = _rnnt_lattice(lp, y)
    alpha = _rnnt_alpha(blank, emit)
    log_total = alpha[T - 1, U - 1] + blank[T - 1, U - 1]
    loss = np.asarray(-log_total)

    if not isinstance(logp, Tensor) or logp.tape is None:
        return Tensor(loss)

    def grad_fn(g):
        beta = _rnnt_beta(blank, emit)
        grad = np.zeros_like(lp)
        # Blank edge (t,u) -> (t+1,u); at the top-right corner it terminates.
        beta_after_blank = np.full((T, U), NEG_INF)
        if T > 1:
            beta_after_blank[:-1] = beta[1:]
        beta_after_blank[T - 1, U - 1] = 0.0
        grad[:, :, BLANK] = -np.exp(alpha + blank + beta_after_blank - log_total)
        if U > 1:
            occ_emit = np.exp(alpha[:, :-1] + emit + beta[:, 1:] - log_total)
            rows = np.arange(T)[:, None]
            cols = np.arange(U - 1)[None, :]
            lab = np.asarray(y, dtype=np.intp)[None, :]
            grad[rows, cols, lab] -= occ_emit
        return (grad * g,)

    return autodiff.record_custom(loss, (logp,), grad_fn)


def ctc_loss_oracle(logp, y):
    """Brute-force -log sum over all enumerated alignments. No gradient."""
    lp = _as_array(logp)
    y = tuple(int(u) for u in y)
    _check_oracle_vocab(lp.shape[-1])
    terms = []
    for z in enumerate_ctc_alignments(y, lp.shape[0]):
        terms.append(sum(lp[t, s] for t, s in enumerate(z)))
    return -_logsumexp(terms)


def rnnt_loss_oracle(logp, y):
    """Brute-force -log sum over all enumerated transducer paths. No gradient."""
    lp = _as_array(logp)
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
    from .alignments import MAX_ORACLE_V

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
