import itertools
import math

import numpy as np
import pytest

from conftest import random_log_rows
from csrt import autodiff as ad
from csrt.alignments import BLANK, min_ctc_length
from csrt.autodiff import Tape, Tensor, backward, grad_check
from csrt.checks import oracle_sweep, random_ctc_instance, random_rnnt_instance
from csrt.errors import CsrtError, InfeasibleTargetError, ShapeMismatchError
from csrt.losses import (
    ctc_loss,
    ctc_loss_oracle,
    ls_loss,
    rnnt_loss,
    rnnt_loss_oracle,
)


def uniform_log(shape):
    return np.full(shape, -math.log(shape[-1]))


class TestCtcLoss:
    def test_uniform_t2(self):
        # all per-frame probs 0.5 over {blank, a}: p(y=[a]) = 3 * 0.25
        loss = ctc_loss([uniform_log((2, 2))], [(1,)])
        assert loss.item() == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_single_frame(self):
        lp = np.log(np.array([[0.3, 0.7]]))
        assert ctc_loss([lp], [(1,)]).item() == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_repeat_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            ctc_loss([uniform_log((2, 2))], [(1, 1)])

    def test_empty_target(self):
        lp = random_log_rows(np.random.default_rng(0), 3, 3)
        expect = -lp[:, 0].sum()
        assert ctc_loss([lp], [()]).item() == pytest.approx(expect, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(CsrtError):
            ctc_loss([uniform_log((2, 2))], [(2,)])

    def test_oracle_agreement_200(self):
        worst = oracle_sweep(trials=200, seed=42)
        assert worst["ctc"] < 1e-6

    def test_gradient_through_log_softmax(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            lp, y = random_ctc_instance(rng, max_t=4, max_l=2, max_v=3)

            def f(leaves):
                return ctc_loss([ad.log_softmax(leaves[0], axis=-1)], [y])

            assert grad_check(f, [rng.standard_normal(lp.shape)]) < 1e-4

    def test_gradient_rows_sum_to_minus_one(self):
        # every alignment passes exactly one state per frame
        rng = np.random.default_rng(9)
        lp, y = random_ctc_instance(rng, max_t=5, max_l=3, max_v=3)
        tape = Tape()
        leaf = tape.leaf(lp)
        backward(ctc_loss([leaf], [y]))
        assert np.allclose(leaf.grad.sum(axis=1), -1.0, atol=1e-9)

    def test_gradient_rows_sum_to_minus_one_at_training_sizes(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            lp, y = random_ctc_instance(rng, max_t=100, max_l=25, max_v=10)
            tape = Tape()
            leaf = tape.leaf(lp)
            backward(ctc_loss([leaf], [y]))
            assert np.allclose(leaf.grad.sum(axis=1), -1.0, rtol=0.0, atol=1e-12)

    def test_minus_inf_entry_has_zero_gradient(self):
        lp = np.log([[0.5, 0.5], [1.0, 1.0], [0.5, 0.5]])
        lp[1, 1] = -np.inf
        tape = Tape()
        leaf = tape.leaf(lp)
        backward(ctc_loss([leaf], [(1,)]))
        assert leaf.grad[1, 1] == 0.0 and np.isfinite(leaf.grad).all()
        assert np.allclose(leaf.grad, [[-0.5, -0.5], [-1.0, 0.0], [-0.5, -0.5]], rtol=0.0, atol=1e-15)


class TestRnntLoss:
    def test_t1_l1_uniform(self):
        loss = rnnt_loss([uniform_log((1, 2, 2))], [(1,)])
        assert loss.item() == pytest.approx(math.log(4), abs=1e-12)

    def test_t2_l1_uniform_two_paths(self):
        loss = rnnt_loss([uniform_log((2, 2, 2))], [(1,)])
        assert loss.item() == pytest.approx(math.log(4), abs=1e-12)

    def test_empty_target_certain_blank(self):
        lp = np.full((3, 1, 2), -50.0)
        lp[:, :, 0] = 0.0
        assert rnnt_loss([lp], [()]).item() == pytest.approx(0.0, abs=1e-12)

    def test_lattice_label_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            rnnt_loss([uniform_log((2, 2, 2))], [(1, 1)])

    def test_oracle_agreement_200(self):
        worst = oracle_sweep(trials=200, seed=43)
        assert worst["rnnt"] < 1e-6

    def test_gradient_through_log_softmax(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            lp, y = random_rnnt_instance(rng, max_t=3, max_l=2, max_v=3)

            def f(leaves):
                return rnnt_loss([ad.log_softmax(leaves[0], axis=-1)], [y])

            assert grad_check(f, [rng.standard_normal(lp.shape)]) < 1e-4

    def test_total_occupancy_is_path_length(self):
        # every path takes exactly T+L edges, so the grad mass sums to -(T+L)
        rng = np.random.default_rng(11)
        for _ in range(10):
            lp, y = random_rnnt_instance(rng, max_t=4, max_l=3, max_v=3)
            tape = Tape()
            leaf = tape.leaf(lp)
            backward(rnnt_loss([leaf], [y]))
            expect = -(lp.shape[0] + len(y))
            assert leaf.grad.sum() == pytest.approx(expect, abs=1e-9)

    def test_each_anti_diagonal_carries_unit_occupancy(self):
        # every path leaves each diagonal t + u = k (k < T + L) on exactly one edge
        rng = np.random.default_rng(15)
        for _ in range(30):
            lp, y = random_rnnt_instance(rng, max_t=100, max_l=25, max_v=10)
            tape = Tape()
            leaf = tape.leaf(lp)
            backward(rnnt_loss([leaf], [y]))
            T, U = lp.shape[:2]
            per_node = leaf.grad.sum(axis=2)
            t, u = np.indices((T, U))
            per_diag = np.bincount((t + u).ravel(), weights=per_node.ravel())
            assert np.allclose(per_diag, -1.0, rtol=0.0, atol=1e-12)

    def test_minus_inf_blank_has_zero_gradient(self):
        lp = np.full((3, 2, 2), math.log(0.5))
        lp[1, 0, BLANK] = -np.inf
        tape = Tape()
        leaf = tape.leaf(lp)
        loss = rnnt_loss([leaf], [(1,)])
        backward(loss)
        assert loss.item() == pytest.approx(math.log(8), abs=1e-12)
        assert leaf.grad[1, 0, BLANK] == 0.0 and np.isfinite(leaf.grad).all()


    def test_minus_inf_label_entry_matches_oracle(self):
        lp = np.full((3, 2, 2), math.log(0.5))
        lp[1, 0, 1] = -np.inf
        assert rnnt_loss([lp], [(1,)]).item() == pytest.approx(math.log(8), abs=1e-12)
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            lp, y = random_rnnt_instance(rng)
            lp = np.where(rng.random(lp.shape) < 0.15, -np.inf, lp)
            want = rnnt_loss_oracle(lp, y)
            if not math.isfinite(want):
                continue
            tape = Tape()
            leaf = tape.leaf(lp)
            loss = rnnt_loss([leaf], [y])
            backward(loss)
            assert loss.item() == pytest.approx(want, abs=1e-12)
            assert np.isfinite(leaf.grad).all()
            checked += 1


class TestOracles:
    def test_empty_target_exact(self):
        lp = random_log_rows(np.random.default_rng(1), 3, 2)
        assert ctc_loss_oracle(lp, ()) == pytest.approx(ctc_loss([lp], [()]).item(), abs=1e-12)
        lat = np.log(np.full((2, 1, 2), 0.5))
        assert rnnt_loss_oracle(lat, ()) == pytest.approx(rnnt_loss([lat], [()]).item(), abs=1e-12)

    def test_vocab_cap(self):
        with pytest.raises(CsrtError):
            ctc_loss_oracle(uniform_log((2, 8)), (1,))


class TestLsLoss:
    def setup_method(self):
        tape = Tape()
        self.r = tape.leaf(np.array(2.0))
        self.m = tape.leaf(np.array(1.0))
        self.e = tape.leaf(np.array(3.0))

    def test_lambda_one_returns_rnnt_tensor(self):
        assert ls_loss(self.r, self.m, self.e, 1.0) is self.r

    def test_lambda_zero_is_ctc_sum(self):
        assert ls_loss(self.r, self.m, self.e, 0.0).item() == pytest.approx(4.0)

    def test_halfway(self):
        assert ls_loss(self.r, self.m, self.e, 0.5).item() == pytest.approx(3.0)

    def test_out_of_range(self):
        with pytest.raises(CsrtError):
            ls_loss(self.r, self.m, self.e, 1.5)

    def test_gradients_weighted(self):
        loss = ls_loss(self.r, self.m, self.e, 0.25)
        backward(loss)
        assert self.r.grad == pytest.approx(0.25)
        assert self.m.grad == pytest.approx(0.75)
        assert self.e.grad == pytest.approx(0.75)


class TestProbabilityLaws:
    def test_total_probability_t4_v2(self):
        rng = np.random.default_rng(12)
        lp = random_log_rows(rng, 4, 3)
        total = 0.0
        for length in range(5):
            for y in itertools.product((1, 2), repeat=length):
                if min_ctc_length(y) > 4:
                    continue
                total += math.exp(-ctc_loss([lp], [y]).item())
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_raising_target_mass_never_hurts(self):
        # Move unit mass from non-target units onto y's symbols, blank mass
        # held fixed, rows still normalized. Only that mass changes; every
        # alignment's path product is then non-decreasing.
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 200:
            lp, y = random_ctc_instance(rng, max_t=5, max_l=3, max_v=3)
            targets = sorted(set(y))
            others = [k for k in range(1, lp.shape[1]) if k not in targets]
            if not y or not others:
                continue
            base = ctc_loss([lp], [y]).item()
            p = np.exp(lp)
            for f in (0.3, 0.9):
                q = p.copy()
                extra = f * q[:, others].sum(axis=1)
                q[:, others] *= 1.0 - f
                target_mass = q[:, targets].sum(axis=1)
                for s in targets:
                    q[:, s] += extra * q[:, s] / target_mass
                assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)
                assert ctc_loss([np.log(q)], [y]).item() <= base + 1e-9
                checked += 1


def _sweep_utterance(rng, kind):
    """One (log-posteriors, labels) pair of a random shape; T = 1 and L = 0 are common."""
    V = int(rng.integers(1, 8))
    L = int(rng.integers(0, 7))
    y = tuple(int(rng.integers(1, V + 1)) for _ in range(L))
    T = int(rng.integers(1, 14))
    if kind == "ctc":
        T = max(T, min_ctc_length(y))
        return random_log_rows(rng, T, V + 1), y
    logits = rng.standard_normal((T, L + 1, V + 1))
    return logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True)), y


def _taped(loss_fn, lps, ys):
    tape = Tape()
    leaves = [tape.leaf(lp) for lp in lps]
    loss = loss_fn(leaves, ys)
    backward(loss)
    return loss.item(), [leaf.grad for leaf in leaves]


class TestBatches:
    @pytest.mark.parametrize("kind", ["ctc", "rnnt"])
    def test_batch_equals_sum_of_single_calls_700(self, kind):
        loss_fn = ctc_loss if kind == "ctc" else rnnt_loss
        rng = np.random.default_rng(2024 if kind == "ctc" else 2025)
        seen = {"T=1": 0, "L=0": 0, "mixed V": 0}
        for _ in range(700):
            batch = [_sweep_utterance(rng, kind) for _ in range(int(rng.integers(1, 10)))]
            lps, ys = [lp for lp, _ in batch], [y for _, y in batch]
            seen["T=1"] += any(lp.shape[0] == 1 for lp in lps)
            seen["L=0"] += any(not y for y in ys)
            seen["mixed V"] += len({lp.shape[-1] for lp in lps}) > 1
            value, grads = _taped(loss_fn, lps, ys)
            singles = [_taped(loss_fn, [lp], [y]) for lp, y in batch]
            want = sum(v for v, _ in singles)
            assert value == pytest.approx(want, rel=1e-12, abs=0.0)
            assert loss_fn(lps, ys).item() == value  # the tape-free path agrees
            for got, (_, (single,)) in zip(grads, singles):
                np.testing.assert_allclose(got, single, rtol=1e-12, atol=0.0)
        assert min(seen.values()) >= 50, seen

    def test_ctc_batch_of_empty_targets(self):
        rng = np.random.default_rng(16)
        lps = [random_log_rows(rng, t, v) for t, v in ((3, 2), (1, 4), (5, 3))]
        value, grads = _taped(ctc_loss, lps, [(), (), ()])
        assert value == pytest.approx(-sum(lp[:, BLANK].sum() for lp in lps), rel=1e-12)
        for grad in grads:
            assert np.allclose(grad[:, BLANK], -1.0, rtol=0.0, atol=1e-12)
            assert not grad[:, 1:].any()

    def test_rnnt_minus_inf_labels_in_a_batch_match_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            batch = []
            while len(batch) < 4:
                lp, y = random_rnnt_instance(rng)
                lp = np.where(rng.random(lp.shape) < 0.15, -np.inf, lp)
                if math.isfinite(rnnt_loss_oracle(lp, y)):
                    batch.append((lp, y))
            value, grads = _taped(rnnt_loss, [lp for lp, _ in batch], [y for _, y in batch])
            want = sum(rnnt_loss_oracle(lp, y) for lp, y in batch)
            assert value == pytest.approx(want, abs=1e-12)
            assert all(np.isfinite(grad).all() for grad in grads)

    def test_infeasible_ctc_utterance_named(self):
        lps = [uniform_log((3, 3)), uniform_log((4, 3)), uniform_log((2, 3))]
        with pytest.raises(InfeasibleTargetError, match="utterance 2"):
            ctc_loss(lps, [(1,), (1, 2), (1, 1)])

    @pytest.mark.parametrize("kind", ["ctc", "rnnt"])
    def test_zero_probability_target_alone_and_in_a_batch(self, kind):
        # Feasible lengths, but every path crosses the -inf column of label 1.
        loss_fn, oracle, shape = {
            "ctc": (ctc_loss, ctc_loss_oracle, (3, 2)),
            "rnnt": (rnnt_loss, rnnt_loss_oracle, (2, 2, 2)),
        }[kind]
        dead = np.log(np.full(shape, 0.5))
        dead[..., 1] = -np.inf
        rng = np.random.default_rng(41)
        normal = [_sweep_utterance(rng, kind) for _ in range(3)]
        for at in (None, 0, 2, 3):
            batch = [(dead, (1,))] if at is None else normal[:at] + [(dead, (1,))] + normal[at:]
            lps, ys = [lp for lp, _ in batch], [y for _, y in batch]
            assert loss_fn(lps, ys).item() == math.inf == oracle(dead, (1,))
            tape = Tape()
            with pytest.raises(InfeasibleTargetError, match=f"utterance {at or 0}:"):
                loss_fn([tape.leaf(lp) for lp in lps], ys)

    def test_label_out_of_range_in_one_utterance(self):
        with pytest.raises(CsrtError, match="utterance 1"):
            ctc_loss([uniform_log((3, 3)), uniform_log((3, 2))], [(2,), (2,)])
        with pytest.raises(CsrtError, match="utterance 0"):
            rnnt_loss([uniform_log((2, 2, 2)), uniform_log((2, 2, 3))], [(2,), (2,)])

    def test_batch_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            ctc_loss([uniform_log((2, 2))], [(1,), (1,)])
        with pytest.raises(ShapeMismatchError):
            rnnt_loss([], [])
        with pytest.raises(ShapeMismatchError, match="utterance 1"):
            rnnt_loss([uniform_log((2, 2, 2)), uniform_log((2, 3, 2))], [(1,), (1,)])

    @pytest.mark.parametrize("kind", ["ctc", "rnnt"])
    def test_zero_frame_posterior_alone_and_in_a_batch(self, kind):
        loss_fn, empty, normal = {
            "ctc": (ctc_loss, np.zeros((0, 3)), uniform_log((2, 3))),
            "rnnt": (rnnt_loss, np.zeros((0, 1, 3)), uniform_log((2, 2, 3))),
        }[kind]
        with pytest.raises(ShapeMismatchError, match="utterance 0: posteriors have zero frames"):
            loss_fn([empty], [()])
        with pytest.raises(ShapeMismatchError, match="utterance 1: posteriors have zero frames"):
            loss_fn([normal, empty], [(1,), ()])
