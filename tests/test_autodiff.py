import gc
import math
import weakref

import numpy as np
import pytest

from conftest import sum_all, zero_fill_accumulate
from csrt import autodiff as ad
from csrt.autodiff import Tape, Tensor, backward, grad_check
from csrt.errors import (
    AxisOutOfRangeError,
    NonDeterministicFunctionError,
    ShapeMismatchError,
    TapeError,
)
from csrt.model import Architecture, Model


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_log_softmax_symmetric_and_normalized():
    out = ad.log_softmax(Tensor([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [-math.log(2)] * 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 7)) * 10
    out = ad.log_softmax(Tensor(x), axis=1)
    sums = np.exp(out.data).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_tanh_fixed_point_and_odd_symmetry():
    assert ad.tanh(Tensor(0.0)).item() == 0.0
    x = np.array([0.3, 1.7, 25.0])
    assert np.array_equal(ad.tanh(Tensor(-x)).data, -ad.tanh(Tensor(x)).data)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeMismatchError) as err:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)
    with pytest.raises(ShapeMismatchError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(AxisOutOfRangeError):
        ad.log_softmax(Tensor(np.zeros((2, 2))), axis=2)
    with pytest.raises(AxisOutOfRangeError):
        ad.concat([Tensor(np.zeros((2, 2)))], axis=5)


def test_backward_square():
    tape = Tape()
    x = tape.leaf(np.array(3.0))
    loss = ad.mul(x, x)
    backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_backward_matmul_sum():
    tape = Tape()
    w = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    v = Tensor(np.array([[1.0], [1.0]]))
    loss = sum_all(ad.matmul(w, v))
    backward(loss)
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_backward_log_softmax_entry():
    tape = Tape()
    z = tape.leaf(np.array([0.0, 0.0]))
    out = ad.log_softmax(z, axis=0)
    loss = sum_all(ad.mul(out, Tensor(np.array([1.0, 0.0]))))
    backward(loss)
    assert np.allclose(z.grad, [0.5, -0.5], atol=1e-12)


def test_backward_rejects_non_scalar_and_reuse():
    tape = Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    y = ad.mul(x, x)
    with pytest.raises(TapeError):
        backward(y)
    loss = sum_all(y)
    backward(loss)
    with pytest.raises(TapeError):
        backward(loss)


def test_backward_frees_the_pass_without_the_cyclic_collector():
    gc.disable()
    try:
        tape = Tape()
        x = tape.leaf(np.array([0.5, -1.0]))
        y = ad.tanh(x)
        activation = weakref.ref(y.data)
        loss = sum_all(ad.mul(y, y))
        backward(loss)
        del y, loss
        assert activation() is None
        assert np.allclose(x.grad, 2.0 * np.tanh(x.data) * (1.0 - np.tanh(x.data) ** 2))
    finally:
        gc.enable()


def test_backward_requires_tape():
    with pytest.raises(TapeError):
        backward(Tensor(1.0))


def test_unused_leaf_grad_is_zero():
    tape = Tape()
    x = tape.leaf(np.array(2.0))
    unused = tape.leaf(np.array([1.0, 1.0]))
    backward(ad.mul(x, x))
    assert np.array_equal(unused.grad, np.zeros(2))


def test_mixing_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.array(1.0))
    b = t2.leaf(np.array(1.0))
    with pytest.raises(TapeError):
        ad.add(a, b)


def test_no_tape_means_no_recording():
    out = ad.add(Tensor(1.0), Tensor(2.0))
    assert out.tape is None and out.item() == 3.0


def test_index_select_and_concat_gradients():
    tape = Tape()
    table = tape.leaf(np.arange(6.0).reshape(3, 2))
    picked = ad.index_select(table, [0, 2, 0])
    loss = sum_all(picked)
    backward(loss)
    # row 0 picked twice, row 2 once, row 1 never
    assert np.array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize(
    "indices",
    [[3], list(range(7)), [1, 2, 5, 6], [5, 0, 3], [0, 2, 0], [4, 4, 4, 1], [6, 1, 6, 2, 1]],
    ids=["single", "arange", "increasing", "unique-unsorted", "dup", "dup-run", "dup-mixed"],
)
def test_index_select_gradient_bitwise_equals_add_at(indices):
    rng = np.random.default_rng(len(indices))
    tape = Tape()
    table = tape.leaf(rng.standard_normal((7, 3)))
    picked = ad.index_select(table, indices)
    g = rng.standard_normal(picked.shape)
    backward(sum_all(ad.mul(picked, Tensor(g))))
    want = np.zeros((7, 3))
    np.add.at(want, np.asarray(indices), g)
    assert table.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("start,stop", [(0, 1), (3, 4), (6, 7), (0, 7), (2, 5), (4, 4)])
def test_rows_bitwise_equals_index_select_of_the_range(start, stop):
    rng = np.random.default_rng(10 * start + stop)
    data = rng.standard_normal((7, 3))
    g = rng.standard_normal((stop - start, 3))
    results = []
    for op in (lambda x: ad.rows(x, start, stop), lambda x: ad.index_select(x, range(start, stop))):
        tape = Tape()
        table = tape.leaf(data.copy())
        picked = op(table)
        value = picked.data.tobytes()
        backward(sum_all(ad.mul(picked, Tensor(g))))
        results.append((value, table.grad.tobytes()))
    assert results[0] == results[1]


def test_rows_forward_is_a_read_only_view():
    x = Tensor(np.arange(12.0).reshape(4, 3))
    out = ad.rows(x, 1, 3)
    assert np.shares_memory(out.data, x.data) and not out.data.flags.writeable
    with pytest.raises(ValueError):
        out.data[0, 0] = 5.0
    assert x.data.flags.writeable and x.data[1, 0] == 3.0


@pytest.mark.parametrize("start,stop", [(-1, 2), (3, 2), (0, 5), (5, 5), (4, 6)])
def test_rows_out_of_range(start, stop):
    with pytest.raises(ShapeMismatchError, match=r"rows: .* 4 rows"):
        ad.rows(Tensor(np.zeros((4, 3))), start, stop)


def test_forward_determinism():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 4))
    a = ad.log_softmax(ad.tanh(ad.matmul(Tensor(x), Tensor(x))), axis=1).data
    b = ad.log_softmax(ad.tanh(ad.matmul(Tensor(x), Tensor(x))), axis=1).data
    assert a.tobytes() == b.tobytes()


JOINT_PARAMS = ("w_enc", "b", "w_dec", "w_out", "b_out")


def _op_instances(rng):
    """Random small instances covering every differentiable op."""
    t, d, k = 3, 4, 2
    yield "matmul", lambda p: sum_all(ad.tanh(ad.matmul(p[0], p[1]))), [
        rng.standard_normal((t, d)),
        rng.standard_normal((d, k)),
    ]
    yield "add-broadcast", lambda p: sum_all(ad.tanh(ad.add(p[0], p[1]))), [
        rng.standard_normal((t, d)),
        rng.standard_normal(d),
    ]
    yield "mul", lambda p: sum_all(ad.mul(p[0], p[1])), [
        rng.standard_normal((t, d)),
        rng.standard_normal((t, d)),
    ]
    weights = Tensor(rng.standard_normal((t, d)))
    yield "log-softmax", lambda p: sum_all(
        ad.mul(ad.log_softmax(p[0], axis=1), weights)
    ), [rng.standard_normal((t, d))]
    yield "index-select", lambda p: sum_all(ad.tanh(ad.index_select(p[0], [0, 2, 0]))), [
        rng.standard_normal((t, d))
    ]
    yield "rows", lambda p: sum_all(ad.tanh(ad.rows(p[0], 1, 3))), [rng.standard_normal((t, d))]
    yield "concat", lambda p: sum_all(ad.tanh(ad.concat([p[0], p[1]], axis=0))), [
        rng.standard_normal((t, d)),
        rng.standard_normal((t, d)),
    ]
    model = Model(Architecture(family="single", input_dim=1, hidden_dim=d, encoder_layers=1,
                               encoder_mixing="conv", embed_dim=1, decoder_dim=k, joint_dim=3,
                               n_m=2, n_e=1))
    u, v = 2, model.arch.n_units + 1
    lattice_weights = Tensor(rng.standard_normal((t, u, v)))

    def joint(p):
        bound = {f"joint.{name}": w for name, w in zip(JOINT_PARAMS, p[2:])}
        return sum_all(ad.mul(model.joint(bound, p[0], p[1]), lattice_weights))

    yield "joint", joint, [rng.standard_normal(shape) * 0.5 for shape in
                           ((t, d), (u, k), (d, 3), (3,), (k, 3), (3, v), (v,))]


def test_every_op_gradient_vs_finite_differences():
    # 100 random small instances spread over the op set
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        for name, f, params in _op_instances(rng):
            err = grad_check(f, params, epsilon=1e-5)
            assert err < 1e-4, f"{name} grad error {err}"
            count += 1


def test_grad_check_detects_nondeterminism():
    state = {"n": 0}

    def f(leaves):
        state["n"] += 1
        return sum_all(ad.mul(leaves[0], float(state["n"])))

    with pytest.raises(NonDeterministicFunctionError):
        grad_check(f, [np.array([1.0])])


def test_grad_check_epsilon_range():
    with pytest.raises(ValueError):
        grad_check(lambda p: sum_all(p[0]), [np.array([1.0])], epsilon=0.5)


def test_grad_check_square_tight():
    err = grad_check(lambda p: ad.mul(p[0], p[0]), [np.array(3.0)], epsilon=1e-5)
    assert err < 1e-7


def _ownership_cases(rng):
    """(name, loss builder over leaves, leaf arrays): graphs whose gradients share memory."""
    w = Tensor(rng.standard_normal((3, 4)))
    m = Tensor(rng.standard_normal((4, 2)))

    # In each graph a tensor's first gradient is memory another tensor also
    # reads later in the backward pass, and a second contribution follows.
    def add_self(p):
        # add(h, h) hands h two views of s's gradient, itself a view shared with k's.
        k = ad.tanh(p[1])
        h = ad.tanh(p[0])
        s = ad.add(h, h)
        return sum_all(ad.mul(ad.add(s, k), w))

    def one_array_two_tensors(p):
        # add(h, q) hands views of one array to h and q.
        h, q = ad.tanh(p[0]), ad.tanh(p[1])
        z = ad.mul(h, w)
        y = ad.add(h, q)
        return sum_all(ad.mul(ad.add(y, z), w))

    def three_consumers(p):
        # h's gradient: a view k also borrows, then an owned sum, then added into.
        k = ad.tanh(p[1])
        h = ad.tanh(p[0])
        c3 = ad.matmul(h, m)
        c2 = ad.mul(h, w)
        c1 = ad.add(h, k)
        return ad.add(sum_all(ad.mul(ad.add(c1, c2), w)), sum_all(c3))

    def concat_views(p):
        # h's first gradient is a split view of u's gradient, which k also borrows.
        k = ad.tanh(ad.concat([p[1], p[0]]))
        h = ad.tanh(p[0])
        z = ad.mul(h, w)
        u = ad.add(ad.concat([h, ad.tanh(p[1])]), k)
        return ad.add(sum_all(ad.mul(u, ad.concat([w, w]))), sum_all(z))

    def custom_returns(p):
        # The custom node returns one array for both inputs; h is consumed again.
        h, q = ad.tanh(p[0]), ad.tanh(p[1])
        z = ad.mul(h, w)
        out = ad.record_custom(h.data + q.data, (h, q), lambda g: (g * 1.0,) * 2)
        return sum_all(ad.mul(ad.add(out, z), w))

    leaves = [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]
    yield "add-self", add_self, leaves
    yield "one-array-two-tensors", one_array_two_tensors, leaves
    yield "three-consumers", three_consumers, leaves
    yield "concat-views", concat_views, leaves
    yield "custom-returns", custom_returns, leaves


def _leaf_grads(build, arrays):
    tape = Tape()
    leaves = [tape.leaf(a.copy()) for a in arrays]
    backward(build(leaves))
    return [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("case", ["add-self", "one-array-two-tensors", "three-consumers",
                                  "concat-views", "custom-returns"])
def test_borrowed_gradients_bitwise_equal_zero_fill_accumulation(case, monkeypatch):
    for seed in range(5):
        cases = {name: (build, arrays) for name, build, arrays in
                 _ownership_cases(np.random.default_rng(seed))}
        build, arrays = cases[case]
        got = _leaf_grads(build, arrays)
        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "_accumulate", zero_fill_accumulate)
            want = _leaf_grads(build, arrays)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_first_gradient_is_borrowed_and_never_written():
    tape = Tape()
    a = tape.leaf(np.array([0.5, -1.0]))
    h = ad.tanh(a)
    square = sum_all(ad.mul(h, h))
    returned = np.array([2.0, 3.0])
    kept = returned.copy()
    out = ad.record_custom(h.data.copy(), (h,), lambda g: (returned,))
    backward(ad.add(sum_all(out), square))  # h borrows `returned` first, then gets 2h
    assert returned.tobytes() == kept.tobytes()
    assert np.allclose(a.grad, (kept + 2.0 * h.data) * (1.0 - h.data**2), rtol=1e-15, atol=0)
