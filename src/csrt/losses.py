"""Differentiable CTC and transducer losses, with brute-force oracles.

Both losses run the standard log-space forward recursion and register a
single hand-differentiated node on the tape: the gradient with respect to
the input log-posteriors is the negative lattice occupancy alpha*beta/Z.
Each lattice has one recursion: beta is the forward recursion run on the
reversed lattice, flipped back. The oracles below recompute the same
quantities by exhaustive enumeration and exist purely to check the
recursions.

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


def _ctc_arrivals(lp, ext):
    """Log mass arriving at each (t, s) before frame t's emission, and emit.

    alpha = arrive + emit. On the reversed lattice (lp[::-1], ext[::-1]),
    which has the same skip rule, the arrivals are beta flipped in t and s.
    """
    T = lp.shape[0]
    S = ext.shape[0]
    emit = lp[:, ext]  # (T, S)
    # Skip transition s-2 -> s is allowed into a label state that differs
    # from the previous label state.
    skip_ok = np.zeros(S, dtype=bool)
    if S > 2:
        skip_ok[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    arrive = np.full((T, S), NEG_INF)
    arrive[0, :2] = 0.0
    for t in range(1, T):
        prev = arrive[t - 1] + emit[t - 1]
        step = np.concatenate(([NEG_INF], prev))[:S]
        acc = np.logaddexp(prev, step)
        skip = np.concatenate(([NEG_INF, NEG_INF], prev))[:S]
        arrive[t] = np.where(skip_ok, np.logaddexp(acc, skip), acc)
    return arrive, emit


def ctc_loss(logp, y):
    """Negative log-likelihood of y under per-frame log-posteriors (T x V+1).

    Differentiable when logp is tape-recorded. Raises InfeasibleTargetError
    when T is shorter than the minimal alignment for y.
    """
    logp = autodiff._lift(logp)
    lp = logp.data
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
    arrive, emit = _ctc_arrivals(lp, ext)
    alpha = arrive + emit
    log_total = alpha[T - 1, S - 1]
    if S > 1:
        log_total = np.logaddexp(log_total, alpha[T - 1, S - 2])

    def grad_fn(g):
        # beta[t, s] covers frames t+1..T-1: frame t's emission is in alpha.
        beta = _ctc_arrivals(lp[::-1], ext[::-1])[0][::-1, ::-1]
        occupancy = np.exp(alpha + beta - log_total)  # (T, S)
        grad = np.zeros_like(lp)
        rows = np.arange(T)[:, None]
        np.add.at(grad, (rows, ext[None, :]), occupancy)
        return (-grad * g,)

    return autodiff.record_custom(np.asarray(-log_total), (logp,), grad_fn)


def _rnnt_alpha(down_w, emit, start=0.0):
    """Log mass reaching each (t, u), with `start` entering at (0, 0).

    down_w[t] weighs the blank edges from frame t to t+1. On the lattice
    reversed in t and u, with the final blank as `start`, it yields beta
    flipped in t and u.
    """
    T, L = emit.shape
    alpha = np.full((T, L + 1), NEG_INF)
    down = np.full(L + 1, NEG_INF)
    down[0] = start
    for t in range(T):
        if t:
            down = alpha[t - 1] + down_w[t - 1]
        # Within a frame only emissions move right; fold them with a
        # prefix log-sum-exp: alpha[t,u] = c[u] + LSE_{k<=u}(down[k] - c[k]),
        # where c is the cumulative emission score.
        c = np.concatenate(([0.0], np.cumsum(emit[t])))
        alpha[t] = c + np.logaddexp.accumulate(down - c)
    return alpha


def rnnt_loss(logp, y):
    """Negative log-likelihood of y under a (T x L+1 x V+1) joint lattice.

    Every y is feasible for T >= 1. Differentiable when logp is
    tape-recorded.
    """
    logp = autodiff._lift(logp)
    lp = logp.data
    y = tuple(int(u) for u in y)
    if lp.ndim != 3:
        raise ShapeMismatchError(f"rnnt_loss: lattice must be 3-d, got {lp.shape}")
    T, U, V1 = lp.shape
    if U != len(y) + 1:
        raise ShapeMismatchError(f"rnnt_loss: lattice U={U} does not fit L={len(y)} labels")
    if any(not 1 <= u < V1 for u in y):
        raise CsrtError(f"rnnt_loss: label outside columns 1..{V1 - 1}: {y}")
    lab = np.asarray(y, dtype=np.intp)
    blank = lp[:, :, BLANK]  # (T, U)
    emit = lp[:, np.arange(U - 1), lab]  # (T, L)
    alpha = _rnnt_alpha(blank[:-1], emit)
    log_total = alpha[T - 1, U - 1] + blank[T - 1, U - 1]

    def grad_fn(g):
        # beta[t, u] is the log mass from (t, u) to the end, final blank included.
        beta = _rnnt_alpha(blank[-2::-1, ::-1], emit[::-1, ::-1], blank[-1, -1])[::-1, ::-1]
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
            grad[rows, cols, lab[None, :]] -= occ_emit
        return (grad * g,)

    return autodiff.record_custom(np.asarray(-log_total), (logp,), grad_fn)


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
