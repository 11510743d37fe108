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
log_softmax, rows (a read-only view of a row range), index_select (a row
gather whose gradient accumulates repeats), concat, and record_custom for
hand-differentiated ops (the lattice losses, the joint). An op records itself
on a tape whenever at least one input is attached to it; with no tape it
only computes. Mixing tensors from two different live tapes is an error.
"""

from __future__ import annotations

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

    def leaf(self, data):
        """Attach an array as a differentiable leaf; its grad starts at zero."""
        t = Tensor(data, tape=self)
        t.grad, t.owns_grad = np.zeros_like(t.data), True
        return t

    def __len__(self):
        return len(self._nodes)


def _lift(x):
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
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = _lift(a), _lift(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeMismatchError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit(out, (a, b), grad_fn)


def mul(a, b):
    """Elementwise product (numpy broadcasting rules)."""
    a, b = _lift(a), _lift(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeMismatchError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def grad_fn(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _emit(out, (a, b), grad_fn)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = a.data @ b.data

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _emit(out, (a, b), grad_fn)


def tanh(x):
    x = _lift(x)
    y = np.tanh(x.data)

    def grad_fn(g):
        return (g * (1.0 - y * y),)

    return _emit(y, (x,), grad_fn)


def log_softmax(x, axis):
    """Log of softmax along `axis`; rows exponentiate-and-sum to one."""
    x = _lift(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise AxisOutOfRangeError(f"log-softmax axis {axis} out of range for rank {x.data.ndim}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def grad_fn(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return _emit(y, (x,), grad_fn)


def rows(x, start, stop):
    """Rows start..stop-1 (axis 0) as a read-only view; the gradient fills them into zeros."""
    x = _lift(x)
    if not 0 <= start <= stop <= x.shape[0]:
        raise ShapeMismatchError(f"rows: [{start}, {stop}) out of range for {x.shape[0]} rows")
    out = x.data[start:stop]
    out.flags.writeable = False

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return _emit(out, (x,), grad_fn)


def index_select(x, indices):
    """Gather rows (axis 0). Duplicate indices accumulate in the gradient."""
    x = _lift(x)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeMismatchError(f"index-select: index out of bounds for {x.shape[0]} rows")
    out = x.data[idx]

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _emit(out, (x,), grad_fn)


def concat(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ShapeMismatchError("concat of zero tensors")
    rank = tensors[0].data.ndim
    if not -rank <= axis < rank:
        raise AxisOutOfRangeError(f"concat axis {axis} out of range for rank {rank}")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatchError(
            "concat: shapes " + ", ".join(str(t.shape) for t in tensors) + " do not align"
        )
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _emit(out, tuple(tensors), grad_fn)


def record_custom(out_data, inputs, grad_fn):
    """Record a hand-differentiated operation (the lattice losses, the joint).

    `grad_fn(g)` must return one gradient array per input, already in the
    input's shape, and write into no array it did not create, `g` included.
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


def grad_check(f, params, epsilon=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `f` maps a list of leaf Tensors to a scalar Tensor and must be
    deterministic; it is re-evaluated once to verify that. `params` is a
    list of numpy arrays, perturbed in place (and restored) during the
    numeric sweep.
    """
    if not 0.0 < epsilon <= 1e-2:
        raise ValueError(f"epsilon {epsilon} outside (0, 1e-2]")
    params = [np.asarray(p, dtype=np.float64) for p in params]

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
            flat[j] = orig + epsilon
            fp = value(params)
            flat[j] = orig - epsilon
            fm = value(params)
            flat[j] = orig
            numeric = (fp - fm) / (2.0 * epsilon)
            err = abs(analytic[j] - numeric) / max(1e-8, abs(analytic[j]) + abs(numeric))
            max_err = max(max_err, err)
    return max_err
