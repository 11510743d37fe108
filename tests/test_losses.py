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
        loss = ctc_loss(uniform_log((2, 2)), (1,))
        assert loss.item() == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_single_frame(self):
        lp = np.log(np.array([[0.3, 0.7]]))
        assert ctc_loss(lp, (1,)).item() == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_repeat_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            ctc_loss(uniform_log((2, 2)), (1, 1))

    def test_empty_target(self):
        lp = random_log_rows(np.random.default_rng(0), 3, 3)
        expect = -lp[:, 0].sum()
        assert ctc_loss(lp, ()).item() == pytest.approx(expect, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(CsrtError):
            ctc_loss(uniform_log((2, 2)), (2,))

    def test_oracle_agreement_200(self):
        worst = oracle_sweep(trials=200, seed=42)
        assert worst["ctc"] < 1e-6

    def test_gradient_through_log_softmax(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            lp, y = random_ctc_instance(rng, max_t=4, max_l=2, max_v=3)

            def f(leaves):
                return ctc_loss(ad.log_softmax(leaves[0], axis=-1), y)

            assert grad_check(f, [rng.standard_normal(lp.shape)]) < 1e-4

    def test_gradient_rows_sum_to_minus_one(self):
        # every alignment passes exactly one state per frame
        rng = np.random.default_rng(9)
        lp, y = random_ctc_instance(rng, max_t=5, max_l=3, max_v=3)
        tape = Tape()
        leaf = tape.leaf(lp)
        backward(ctc_loss(leaf, y))
        assert np.allclose(leaf.grad.sum(axis=1), -1.0, atol=1e-9)

    def test_gradient_rows_sum_to_minus_one_at_training_sizes(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            lp, y = random_ctc_instance(rng, max_t=100, max_l=25, max_v=10)
            tape = Tape()
            leaf = tape.leaf(lp)
            backward(ctc_loss(leaf, y))
            assert np.allclose(leaf.grad.sum(axis=1), -1.0, rtol=0.0, atol=1e-12)

    def test_minus_inf_entry_has_zero_gradient(self):
        lp = np.log([[0.5, 0.5], [1.0, 1.0], [0.5, 0.5]])
        lp[1, 1] = -np.inf
        tape = Tape()
        leaf = tape.leaf(lp)
        backward(ctc_loss(leaf, (1,)))
        assert leaf.grad[1, 1] == 0.0 and np.isfinite(leaf.grad).all()
        assert np.allclose(leaf.grad, [[-0.5, -0.5], [-1.0, 0.0], [-0.5, -0.5]], rtol=0.0, atol=1e-15)


class TestRnntLoss:
    def test_t1_l1_uniform(self):
        loss = rnnt_loss(uniform_log((1, 2, 2)), (1,))
        assert loss.item() == pytest.approx(math.log(4), abs=1e-12)

    def test_t2_l1_uniform_two_paths(self):
        loss = rnnt_loss(uniform_log((2, 2, 2)), (1,))
        assert loss.item() == pytest.approx(math.log(4), abs=1e-12)

    def test_empty_target_certain_blank(self):
        lp = np.full((3, 1, 2), -50.0)
        lp[:, :, 0] = 0.0
        assert rnnt_loss(lp, ()).item() == pytest.approx(0.0, abs=1e-12)

    def test_lattice_label_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            rnnt_loss(uniform_log((2, 2, 2)), (1, 1))

    def test_oracle_agreement_200(self):
        worst = oracle_sweep(trials=200, seed=43)
        assert worst["rnnt"] < 1e-6

    def test_gradient_through_log_softmax(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            lp, y = random_rnnt_instance(rng, max_t=3, max_l=2, max_v=3)

            def f(leaves):
                return rnnt_loss(ad.log_softmax(leaves[0], axis=-1), y)

            assert grad_check(f, [rng.standard_normal(lp.shape)]) < 1e-4

    def test_total_occupancy_is_path_length(self):
        # every path takes exactly T+L edges, so the grad mass sums to -(T+L)
        rng = np.random.default_rng(11)
        for _ in range(10):
            lp, y = random_rnnt_instance(rng, max_t=4, max_l=3, max_v=3)
            tape = Tape()
            leaf = tape.leaf(lp)
            backward(rnnt_loss(leaf, y))
            expect = -(lp.shape[0] + len(y))
            assert leaf.grad.sum() == pytest.approx(expect, abs=1e-9)

    def test_each_anti_diagonal_carries_unit_occupancy(self):
        # every path leaves each diagonal t + u = k (k < T + L) on exactly one edge
        rng = np.random.default_rng(15)
        for _ in range(30):
            lp, y = random_rnnt_instance(rng, max_t=100, max_l=25, max_v=10)
            tape = Tape()
            leaf = tape.leaf(lp)
            backward(rnnt_loss(leaf, y))
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
        loss = rnnt_loss(leaf, (1,))
        backward(loss)
        assert loss.item() == pytest.approx(math.log(8), abs=1e-12)
        assert leaf.grad[1, 0, BLANK] == 0.0 and np.isfinite(leaf.grad).all()


class TestOracles:
    def test_empty_target_exact(self):
        lp = random_log_rows(np.random.default_rng(1), 3, 2)
        assert ctc_loss_oracle(lp, ()) == pytest.approx(ctc_loss(lp, ()).item(), abs=1e-12)
        lat = np.log(np.full((2, 1, 2), 0.5))
        assert rnnt_loss_oracle(lat, ()) == pytest.approx(rnnt_loss(lat, ()).item(), abs=1e-12)

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
                total += math.exp(-ctc_loss(lp, y).item())
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
            base = ctc_loss(lp, y).item()
            p = np.exp(lp)
            for f in (0.3, 0.9):
                q = p.copy()
                extra = f * q[:, others].sum(axis=1)
                q[:, others] *= 1.0 - f
                target_mass = q[:, targets].sum(axis=1)
                for s in targets:
                    q[:, s] += extra * q[:, s] / target_mass
                assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)
                assert ctc_loss(np.log(q), y).item() <= base + 1e-9
                checked += 1
