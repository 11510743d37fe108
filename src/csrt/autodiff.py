"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array plus an optional gradient buffer. A Tape
records operations in execution order (a Wengert list); backward() walks
the list once in reverse, accumulating gradients into every recorded
tensor. Tapes are single-use: one forward pass, one backward pass.

A tensor's first gradient is borrowed as given (a grad_fn may hand out
views of its `g`) and never written in place; a second contribution makes
an owned buffer (grad + g), later ones add into it. Leaves own zero-filled
buffers, so their gradients are bitwise those of zero-fill-and-add.

The op set is what the model and losses record: add, mul, matmul, tanh,
log_softmax (its numpy forward and vjp also serve the joint, search and the
checks), rows (a read-only row-range view), index_select (a row gather that
accumulates repeats), concat, stack_sum and select (over the leading axis),
and record_custom for hand-differentiated ops (the lattice losses, a conv
encoder layer, the joint). matmul, rows and concat act on the last two
axes, broadcasting any before them: one encoder's (T, H) rows or a stack's
(n_enc, T, H). An op records itself on a tape whenever an input is on one;
with no tape it only computes. Mixing two live tapes is an error.

`arrays` is the op set's twin on plain numpy arrays: each op's forward and
nothing else (its `lift` leaves an array as is). Layer code written over
the op names runs over this module's ops on Tensors and over `arrays` for
tape-free inference, with the same arithmetic in the same order, so the
values are bitwise equal.
"""

from __future__ import annotations

import types

import numpy as np

from .errors import (
    AxisOutOfRangeError,
    NonDeterministicFunctionError,
    ShapeMismatchError,
    TapeError,
)


class Tensor:
    """Dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "tape", "owns_grad")

    def __init__(self, data, tape=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.tape = tape
        self.owns_grad = False

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() on non-scalar shape {self.data.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g  # borrowed: never written in place
        elif self.owns_grad:
            self.grad += g
        else:
            self.grad, self.owns_grad = self.grad + g, True


class Tape:
    """Ordered (output, inputs, grad_fn) records of one forward pass. Single use."""

    __slots__ = ("_nodes", "consumed")

    def __init__(self):
        self._nodes = []
        self.consumed = False

    def leaf(self, data, grad=None):
        """Attach an array as a differentiable leaf; its gradient adds in place into `grad`, an
        owned zero buffer (a new one if None), e.g. a view of a flat gradient (`Model.bind`)."""
        t = Tensor(data, tape=self)
        t.grad, t.owns_grad = np.zeros_like(t.data) if grad is None else grad, True
        return t

    def __len__(self):
        return len(self._nodes)


def lift(x):
    """x as an operand: itself if a Tensor, else its array wrapped tape-free."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _emit(out_data, inputs, grad_fn):
    """Wrap an op's freshly made result as is and record it on its inputs' tape, if any."""
    tape = None
    for t in inputs:
        if t.tape is not None and t.tape is not tape:
            if tape is not None:
                raise TapeError("operation mixes tensors from two different tapes")
            tape = t.tape
    out = object.__new__(Tensor)  # 0-d operands give a numpy scalar, the only non-array
    out.data = out_data if type(out_data) is np.ndarray else np.asarray(out_data, dtype=np.float64)
    out.grad, out.tape, out.owns_grad = None, tape, False
    if tape is not None:
        if tape.consumed:
            raise TapeError("tape already consumed by backward()")
        tape._nodes.append((out, inputs, grad_fn))
    return out


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the original operand shape (None passes)."""
    if g is None or g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = lift(a), lift(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeMismatchError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit(out, (a, b), grad_fn)


def mul(a, b):
    """Elementwise product (numpy broadcasting rules)."""
    a, b = lift(a), lift(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeMismatchError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def grad_fn(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _emit(out, (a, b), grad_fn)


def matmul(a, b):
    """Matrix product over the last two axes, broadcasting the axes before them."""
    a, b = lift(a), lift(b)
    if min(a.data.ndim, b.data.ndim) < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = a.data @ b.data

    def grad_fn(g):  # none for an operand off the tape, such as the features all encoders read
        ga = None if a.tape is None else g @ b.data.mT
        gb = None if b.tape is None else a.data.mT @ g
        if g.ndim > 2:  # sum each over the leading axes it was broadcast along
            ga, gb = _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)
        return ga, gb

    return _emit(out, (a, b), grad_fn)


def tanh(x):
    x = lift(x)
    y = np.tanh(x.data)

    def grad_fn(g):
        return (g * (1.0 - y * y),)

    return _emit(y, (x,), grad_fn)


def log_softmax_array(x, axis):
    """Log of softmax along `axis` of a numpy array, shifted by its max first."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax_vjp(y, g, axis):
    """Gradient at the input of a log-softmax with output `y`, given `g` at its output."""
    return g - np.exp(y) * g.sum(axis=axis, keepdims=True)


def log_softmax(x, axis):
    """Log of softmax along `axis`; rows exponentiate-and-sum to one."""
    x = lift(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise AxisOutOfRangeError(f"log-softmax axis {axis} out of range for rank {x.data.ndim}")
    y = log_softmax_array(x.data, axis)
    return _emit(y, (x,), lambda g: (log_softmax_vjp(y, g, axis),))


def _placed(like, at, g):
    """Zeros shaped like `like`, with `g` at index `at`: the gradient of a view."""
    gx = np.zeros_like(like)
    gx[at] = g
    return gx


def rows(x, start, stop):
    """Rows start..stop-1 (axis -2) as a read-only view; the gradient fills them into zeros."""
    x = lift(x)
    if not 0 <= start <= stop <= x.shape[-2]:
        raise ShapeMismatchError(f"rows: [{start}, {stop}) out of range for {x.shape[-2]} rows")
    at = (slice(None),) * (x.data.ndim - 2) + (slice(start, stop),)
    out = x.data[at]
    out.flags.writeable = False
    return _emit(out, (x,), lambda g: (_placed(x.data, at, g),))


def index_select(x, indices):
    """Gather rows (axis 0). Duplicate indices accumulate in the gradient."""
    x = lift(x)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeMismatchError(f"index-select: index out of bounds for {x.shape[0]} rows")
    out = x.data[idx]

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _emit(out, (x,), grad_fn)


def concat(tensors):
    """Join tensors along their rows (axis -2)."""
    tensors = [lift(t) for t in tensors]
    if not tensors:
        raise ShapeMismatchError("concat of zero tensors")
    try:
        out = np.concatenate([t.data for t in tensors], axis=-2)
    except ValueError:
        shapes = ", ".join(str(t.shape) for t in tensors)
        raise ShapeMismatchError(f"concat: shapes {shapes} do not align")
    bounds = np.cumsum([t.shape[-2] for t in tensors])[:-1]

    def grad_fn(g):
        return tuple(np.split(g, bounds, axis=-2))

    return _emit(out, tuple(tensors), grad_fn)


def stack_sum(x):
    """Sum over the leading axis, in order; the gradient is `g` broadcast back, read-only."""
    x = lift(x)
    return _emit(x.data.sum(axis=0), (x,), lambda g: (np.broadcast_to(g, x.shape),))


def select(x, i):
    """Entry i of the leading axis, a view; the gradient fills it into zeros."""
    x = lift(x)
    return _emit(x.data[i], (x,), lambda g: (_placed(x.data, i, g),))


arrays = types.SimpleNamespace(
    lift=np.asarray, add=np.add, matmul=np.matmul, tanh=np.tanh,
    log_softmax=log_softmax_array, rows=lambda x, start, stop: x[..., start:stop, :],
    index_select=lambda x, indices: x[np.asarray(indices, dtype=np.intp)],
    concat=lambda xs: np.concatenate(xs, axis=-2), stack_sum=lambda x: x.sum(axis=0),
    select=lambda x, i: x[i],
)


def record_custom(out_data, inputs, grad_fn):
    """Record a hand-differentiated operation (the lattice losses, a conv layer, the joint).

    `grad_fn(g)` returns one gradient per input, in its shape (None off the
    tape), and writes into no array it did not create, `g` included.
    """
    return _emit(np.asarray(out_data, dtype=np.float64), tuple(inputs), grad_fn)


def backward(loss):
    """Populate grads of everything recorded on the loss's tape.

    The tape is consumed: a second backward on it is rejected, and each
    record is dropped once processed. Records and the tensors that refer to
    the tape form a cycle that would keep the pass's arrays until the cyclic
    GC runs; dropping them frees each array as soon as nothing needs it.
    """
    if not isinstance(loss, Tensor) or loss.tape is None:
        raise TapeError("backward: loss is not tape-recorded")
    if loss.data.size != 1:
        raise TapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    if tape.consumed:
        raise TapeError("backward: tape already consumed")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    nodes, tape._nodes = tape._nodes, []
    while nodes:
        out, inputs, grad_fn = nodes.pop()
        if out.grad is None:
            continue
        for inp, gi in zip(inputs, grad_fn(out.grad)):
            if inp.tape is tape:
                inp._accumulate(gi)


def grad_check(f, params):
    """Max relative error between analytic and central-difference gradients (step 1e-5).

    `f` maps a list of leaf Tensors to a scalar Tensor and must be
    deterministic; it is re-evaluated once to verify that. `params` is a
    list of numpy arrays; the numeric sweep perturbs copies of them.
    """
    params = [np.array(p, dtype=np.float64) for p in params]

    def value(arrs):
        return float(f([Tensor(a) for a in arrs]).data)

    tape = Tape()
    leaves = [tape.leaf(p.copy()) for p in params]
    loss = f(leaves)
    v0 = float(loss.data)
    if value(params) != v0:
        raise NonDeterministicFunctionError("function value changed on re-evaluation")
    backward(loss)

    max_err = 0.0
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        analytic = leaves[pi].grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + 1e-5
            fp = value(params)
            flat[j] = orig - 1e-5
            fm = value(params)
            flat[j] = orig
            numeric = (fp - fm) / 2e-5
            err = abs(analytic[j] - numeric) / max(1e-8, abs(analytic[j]) + abs(numeric))
            max_err = max(max_err, err)
    return max_err
