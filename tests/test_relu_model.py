import math

import numpy as np
import pytest

from relu_bandits import (
    DimensionMismatchError,
    ReluNetwork,
    UnsupportedDimensionError,
    eval_f_batch,
    exact_argmax_2d,
    gap_of,
    margin_mask,
    sign_robust_features_batch,
)

from oracles import eval_f_reference, grid_argmax_2d, sign_corrected_parameter

RT2 = math.sqrt(2.0)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def lift(x, est):
    """Sign-robust features of one action."""
    return sign_robust_features_batch(np.asarray(x, dtype=float)[None, :], est)[0]


def frozen(x, est):
    """Indicator-frozen features of one action: the first kd entries of its lift."""
    return lift(x, est)[: est.k * est.d]


def random_net(rng, k, d):
    w = rng.standard_normal((k, d))
    return ReluNetwork(w / np.linalg.norm(w, axis=1, keepdims=True))


class TestReluNetwork:
    def test_row_norm_enforced(self):
        with pytest.raises(ValueError):
            ReluNetwork(np.array([[1.0, 1.0]]))

    def test_shape_properties(self):
        net = ReluNetwork(np.eye(3))
        assert net.k == 3 and net.d == 3

    def test_weights_immutable(self):
        net = ReluNetwork(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            net.weights[0, 0] = 2.0

    def test_one_dimensional_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ReluNetwork(np.array([1.0, 0.0]))


class TestEvalF:
    def test_single_active(self):
        assert eval_f_batch(ReluNetwork(np.array([[1.0, 0.0]])), np.array([[1.0, 0.0]]))[0] == 1.0

    def test_inactive(self):
        assert eval_f_batch(ReluNetwork(np.array([[1.0, 0.0]])), np.array([[-1.0, 0.0]]))[0] == 0.0

    def test_two_active(self):
        net = ReluNetwork(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert eval_f_batch(net, np.array([[RT2 / 2, RT2 / 2]]))[0] == pytest.approx(RT2, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eval_f_batch(ReluNetwork(np.array([[1.0, 0.0]])), np.array([[1.0, 0.0, 0.0]]))

    def test_batch_matches_scalar_and_reference(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, 3, 4)
        X = rng.standard_normal((40, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        vals = eval_f_batch(net, X)
        for i in range(40):
            assert vals[i] == pytest.approx(eval_f_batch(net, X[i : i + 1])[0], abs=1e-12)
            assert vals[i] == pytest.approx(eval_f_reference(net.weights, X[i]), abs=1e-12)

    def test_bounded_by_k(self):
        rng = np.random.default_rng(1)
        for k, d in ((1, 2), (4, 3), (7, 5)):
            net = random_net(rng, k, d)
            X = rng.standard_normal((200, d))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            vals = eval_f_batch(net, X)
            assert np.all(vals >= 0.0) and np.all(vals <= k + 1e-12)


class TestFrozenFeatures:
    def test_active(self):
        out = frozen(np.array([0.6, 0.8]), ReluNetwork(np.array([[1.0, 0.0]])))
        np.testing.assert_allclose(out, [0.6, 0.8])

    def test_inactive(self):
        out = frozen(np.array([-0.6, 0.8]), ReluNetwork(np.array([[1.0, 0.0]])))
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_boundary_counts_active(self):
        # first neuron sits exactly on its boundary (dot = 0 counts active),
        # the second is strictly negative
        est = ReluNetwork(np.array([[1.0, 0.0], [0.0, -1.0]]))
        out = frozen(np.array([0.0, 1.0]), est)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0, 0.0])


class TestSignRobustFeatures:
    def test_active_blocks(self):
        out = lift(np.array([0.6, 0.8]), ReluNetwork(np.array([[1.0, 0.0]])))
        np.testing.assert_allclose(out, [0.6, 0.8, -0.3, -0.4])

    def test_inactive_blocks(self):
        out = lift(np.array([-0.6, 0.8]), ReluNetwork(np.array([[1.0, 0.0]])))
        np.testing.assert_allclose(out, [0.0, 0.0, -0.3, 0.4])

    def test_length_2kd(self):
        rng = np.random.default_rng(2)
        est = random_net(rng, 3, 2)
        assert lift(unit([1.0, 1.0]), est).shape == (12,)

    def test_block_structure(self):
        # every block is the raw action scaled by {0,1} (first k) or
        # {-1/2,+1/2} (last k)
        rng = np.random.default_rng(4)
        est = random_net(rng, 4, 3)
        x = unit(rng.standard_normal(3))
        feats = lift(x, est).reshape(2 * 4, 3)
        for i in range(4):
            scale = feats[i] @ x  # x is unit so scale recovers the factor
            assert scale in (0.0, 1.0) or abs(scale - 1.0) < 1e-12 or abs(scale) < 1e-12
            np.testing.assert_allclose(feats[i], scale * x, atol=1e-12)
        for i in range(4, 8):
            scale = feats[i] @ x
            assert abs(abs(scale) - 0.5) < 1e-12
            np.testing.assert_allclose(feats[i], scale * x, atol=1e-12)


class TestSignCorrectedParameter:
    def test_matched_sign(self):
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        out = sign_corrected_parameter(truth, truth, 0.5)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0])

    def test_flipped_sign(self):
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        est = ReluNetwork(np.array([[-1.0, 0.0]]))
        out = sign_corrected_parameter(truth, est, 0.5)
        np.testing.assert_allclose(out, [1.0, 0.0, 2.0, 0.0])

    def test_flipped_identity_spot(self):
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        est = ReluNetwork(np.array([[-1.0, 0.0]]))
        theta = sign_corrected_parameter(truth, est, 0.5)
        x = np.array([0.6, 0.8])
        assert lift(x, est) @ theta == pytest.approx(0.6, abs=1e-12)
        assert eval_f_reference(truth.weights, x) == pytest.approx(0.6, abs=1e-12)

    def test_nonpositive_nu_rejected(self):
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            sign_corrected_parameter(truth, truth, 0.0)

    def test_norm_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k, d = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            truth = random_net(rng, k, d)
            signs = rng.choice([-1.0, 1.0], size=k)
            pert = signs[:, None] * truth.weights + 0.05 * rng.standard_normal((k, d))
            est = ReluNetwork(pert / np.linalg.norm(pert, axis=1, keepdims=True))
            theta = sign_corrected_parameter(truth, est, 0.5)
            assert np.linalg.norm(theta) <= math.sqrt(5.0 * k) + 1e-9


class TestRestrictArms:
    """Arm restriction by margin: ``margin_mask`` keeps |we_i . x| >= nu for every i."""

    def test_filters_by_margin(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        est = ReluNetwork(np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(margin_mask(arms, est, 0.5), [True, False, True])

    def test_nu_zero_is_identity(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0]])
        est = ReluNetwork(np.array([[1.0, 0.0]]))
        assert margin_mask(arms, est, 0.0).all()


class TestGapOf:
    def test_aligned(self):
        assert gap_of(ReluNetwork(np.array([[1.0, 0.0]])), np.array([1.0, 0.0])) == 1.0

    def test_at_oracle_optimum(self):
        net = ReluNetwork(np.array([[1.0, 0.0], [0.0, 1.0]]))
        xstar, _ = exact_argmax_2d(net)
        assert gap_of(net, xstar) == pytest.approx(RT2 / 2, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert gap_of(ReluNetwork(np.array([[1.0, 0.0]])), np.array([0.0, 1.0])) == 0.0


class TestExactArgmax2d:
    def test_single_neuron(self):
        x, v = exact_argmax_2d(ReluNetwork(np.array([[1.0, 0.0]])))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        x, v = exact_argmax_2d(ReluNetwork(np.array([[1.0, 0.0], [0.0, 1.0]])))
        np.testing.assert_allclose(x, [RT2 / 2, RT2 / 2], atol=1e-12)
        assert v == pytest.approx(RT2, abs=1e-12)

    def test_tie_broken_by_smallest_angle(self):
        # f(x) = relu(x1) + relu(-x1) peaks at both angle 0 and angle pi
        x, v = exact_argmax_2d(ReluNetwork(np.array([[1.0, 0.0], [-1.0, 0.0]])))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            exact_argmax_2d(ReluNetwork(np.eye(3)))

    def test_dominates_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            net = random_net(rng, 3, 2)
            _, v = exact_argmax_2d(net)
            _, gv = grid_argmax_2d(net.weights, n=20_000)
            assert v >= gv - 1e-12


class TestLinearizationIdentity:
    def _perturbed(self, rng, truth, nu, force_flips=False):
        k = truth.k
        signs = rng.choice([-1.0, 1.0], size=k)
        if force_flips:
            signs[rng.integers(k)] = -1.0
        pert = signs[:, None] * truth.weights
        pert = pert + (nu / 8.0) * rng.standard_normal(pert.shape)
        return ReluNetwork(pert / np.linalg.norm(pert, axis=1, keepdims=True))

    def test_identity_on_restricted_arms(self):
        rng = np.random.default_rng(8)
        nu = 0.3
        checked = 0
        for case in range(50):
            k, d = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            truth = random_net(rng, k, d)
            est = self._perturbed(rng, truth, nu, force_flips=(case % 2 == 0))
            theta = sign_corrected_parameter(truth, est, nu)
            X = rng.standard_normal((300, d))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            kept = X[margin_mask(X, est, nu / 2.0)]
            lhs = sign_robust_features_batch(kept, est) @ theta
            np.testing.assert_allclose(lhs, eval_f_batch(truth, kept), atol=1e-9)
            checked += len(kept)
        assert checked > 1000

    def test_indicator_consistency(self):
        rng = np.random.default_rng(9)
        nu = 0.3
        for _ in range(30):
            k, d = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            truth = random_net(rng, k, d)
            signs = rng.choice([-1.0, 1.0], size=k)
            pert = signs[:, None] * truth.weights + (nu / 8.0) * rng.standard_normal((k, d))
            est = ReluNetwork(pert / np.linalg.norm(pert, axis=1, keepdims=True))
            X = rng.standard_normal((200, d))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            mask = margin_mask(X, est, nu / 2.0)
            if not mask.any():
                continue
            Xr = X[mask]
            ind_est = (Xr @ est.weights.T) >= 0.0
            ind_truth = (Xr @ truth.weights.T) >= 0.0
            for i in range(k):
                if signs[i] > 0:
                    assert np.array_equal(ind_est[:, i], ind_truth[:, i])
                else:
                    assert np.array_equal(ind_est[:, i], ~ind_truth[:, i])

    def test_frozen_feature_identity_when_signs_match(self):
        rng = np.random.default_rng(10)
        nu = 0.3
        for _ in range(30):
            k, d = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            truth = random_net(rng, k, d)
            pert = truth.weights + (nu / 8.0) * rng.standard_normal((k, d))
            est = ReluNetwork(pert / np.linalg.norm(pert, axis=1, keepdims=True))
            X = rng.standard_normal((200, d))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            mask = margin_mask(X, est, nu / 2.0)
            if not mask.any():
                continue
            kept = X[mask][:20]
            lhs = sign_robust_features_batch(kept, est)[:, : k * d] @ truth.weights.reshape(-1)
            np.testing.assert_allclose(lhs, eval_f_batch(truth, kept), rtol=0, atol=1e-9)
