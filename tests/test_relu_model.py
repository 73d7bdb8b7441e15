import math

import numpy as np
import pytest

from relu_bandits import ReluNetwork, eval_f_batch
from relu_bandits.relu_model import _row_sum, exact_argmax_2d, margin_mask, sign_robust_features_batch

from oracles import (
    eval_f_batch_reference,
    eval_f_reference,
    gap_of,
    grid_argmax_2d,
    margin_mask_reference,
    sign_corrected_parameter,
    sign_robust_features_reference,
)

RT2 = math.sqrt(2.0)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def lift(x, est):
    """Sign-robust features of one action."""
    row = np.asarray(x, dtype=float)[None, :]
    return sign_robust_features_batch(row, row @ est.weights.T)[0]


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
        with pytest.raises(ValueError, match=r"^weights must be a nonempty 2-D array, got shape \(2,\)"):
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
        with pytest.raises(ValueError, match=r"^actions have shape \(1, 3\), expected \(m, 2\)"):
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
        np.testing.assert_array_equal(margin_mask(arms @ est.weights.T, 0.5), [True, False, True])

    def test_nu_zero_is_identity(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0]])
        est = ReluNetwork(np.array([[1.0, 0.0]]))
        assert margin_mask(arms @ est.weights.T, 0.0).all()

    def test_projection_must_pair_with_the_actions(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0]])
        est = ReluNetwork(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="do not pair up"):
            sign_robust_features_batch(arms, arms[:1] @ est.weights.T)
        with pytest.raises(ValueError, match=r"^projection must be a 2-D \(m, k\) array with k >= 1, got shape \(2,\)"):
            margin_mask((arms @ est.weights.T)[:, 0], 0.0)


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
        with pytest.raises(ValueError, match="^exact argmax is implemented for d=2 only, got d=3"):
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
            kept = X[margin_mask(X @ est.weights.T, nu / 2.0)]
            lhs = sign_robust_features_batch(kept, kept @ est.weights.T) @ theta
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
            mask = margin_mask(X @ est.weights.T, nu / 2.0)
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
            mask = margin_mask(X @ est.weights.T, nu / 2.0)
            if not mask.any():
                continue
            kept = X[mask][:20]
            lhs = sign_robust_features_batch(kept, kept @ est.weights.T)[:, : k * d] @ truth.weights.reshape(-1)
            np.testing.assert_allclose(lhs, eval_f_batch(truth, kept), rtol=0, atol=1e-9)


KERNEL_KS = (1, 3, 7, 8, 10)
KERNEL_DS = (2, 3, 7, 8, 9)
KERNEL_MS = (1, 5, 1000)


def assert_same_bits(got, want):
    """Exact equality down to the sign of zero."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def kernel_case(rng, k, d, m, orthant):
    """Weights with neuron 0 on the first axis, and m unit arms cycling through
    a random row, a row at that neuron's kink (first coordinate exactly 0) and,
    with orthant weights (all entries >= 0), a row in the negative orthant that
    every neuron scores <= 0, so f is exactly 0 there."""
    w = rng.standard_normal((k, d))
    if orthant:
        w = np.abs(w)
    w[0] = 0.0
    w[0, 0] = 1.0
    x = rng.standard_normal((m, d))
    x[1::3, 0] = 0.0
    if orthant:
        x[2::3] = -np.abs(x[2::3])
        x[2::6, 0] = 0.0
    unit_rows = lambda a: a / np.linalg.norm(a, axis=1, keepdims=True)
    return ReluNetwork(unit_rows(w)), unit_rows(x)


def kernel_cases(k):
    rng = np.random.default_rng(1000 + k)
    for d in KERNEL_DS:
        for m in KERNEL_MS:
            for orthant in (False, True):
                yield kernel_case(rng, k, d, m, orthant)


ROW_SUM_SPECIALS = {
    "inf": (np.inf,),
    "-inf": (-np.inf,),
    "nan": (np.nan,),
    "inf and -inf": (np.inf, -np.inf),
    "nan and inf": (np.nan, np.inf),
    "nan and -inf": (np.nan, -np.inf),
}


class TestRowSum:
    @pytest.mark.parametrize("m", KERNEL_MS)
    def test_equals_numpy_sum_on_both_sides_of_eight(self, m):
        rng = np.random.default_rng(m)
        for n in range(1, 21):
            a = rng.standard_normal((m, n)) * np.exp(rng.uniform(-30.0, 30.0, (m, n)))
            a[::2, ::3] = -0.0
            assert_same_bits(_row_sum(a), a.sum(axis=1))

    def test_signed_zero_rows(self):
        a = np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, 1.0]])
        assert_same_bits(_row_sum(a), a.sum(axis=1))

    @pytest.mark.parametrize("m", KERNEL_MS)
    def test_all_negative_zero_rows_sum_to_positive_zero(self, m):
        for n in range(1, 21):
            a = np.full((m, n), -0.0)
            got = _row_sum(a)
            assert_same_bits(got, a.sum(axis=1))
            assert not np.signbit(got).any()  # numpy's +0.0 start, at every width

    def test_signed_zeros_mixed_with_nonzeros(self):
        rng = np.random.default_rng(8)
        values = np.array([-0.0, 0.0, 1.5, -1.5, 5e-324, -5e-324, 2.0**60, -(2.0**60)])
        for n in range(1, 21):
            a = rng.choice(values, size=(600, n), p=[0.35, 0.15, 0.1, 0.1, 0.075, 0.075, 0.075, 0.075])
            a[0] = -0.0
            a[1, -1] = 1.0  # one nonzero after a run of -0.0
            a[2, :] = -0.0
            a[2, 0] = 1.0  # one nonzero before it
            if n >= 2:
                a[3, :2] = (1.5, -1.5)  # cancels to +0.0, the rest +-0
                a[3, 2:] = -0.0
            assert_same_bits(_row_sum(a), a.sum(axis=1))

    @pytest.mark.parametrize("special", sorted(ROW_SUM_SPECIALS))
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf + -inf
    def test_rows_with_infinities_and_nan(self, special):
        # At most one NaN arises per row (a NaN entry, or inf + -inf): of two
        # different NaNs the sum keeps whichever the CPU's add takes first, and
        # numpy's compiled loops may take the operands either way round.
        rng = np.random.default_rng(9)
        for n in range(1, 21):
            a = rng.standard_normal((600, n))
            a[::4] = -0.0
            for i in range(n):  # row i holds the specials from column i on, five apart
                for r, v in enumerate(ROW_SUM_SPECIALS[special]):
                    a[i, (i + 5 * r) % n] = v
            assert_same_bits(_row_sum(a), a.sum(axis=1))

    def test_numpy_fallback_from_sixteen_and_off_contiguous_rows(self):
        rng = np.random.default_rng(10)
        for n in (16, 17, 24, 40):
            a = rng.standard_normal((600, n)) * np.exp(rng.uniform(-30.0, 30.0, (600, n)))
            a[::3] = -0.0
            assert_same_bits(_row_sum(a), a.sum(axis=1))
        for n in range(1, 16):  # numpy sums other layouts column by column
            a = rng.standard_normal((600, n)) * np.exp(rng.uniform(-30.0, 30.0, (600, n)))
            for view in (np.asfortranarray(a), np.repeat(a, 2, axis=1)[:, ::2]):
                assert_same_bits(_row_sum(view), view.sum(axis=1))


class TestKernelsMatchReference:
    """The kernels return what the plain numpy forms in ``oracles`` return, bit for bit."""

    @pytest.mark.parametrize("k", KERNEL_KS)
    def test_eval_f_batch(self, k):
        for net, x in kernel_cases(k):
            got = eval_f_batch(net, x)
            assert_same_bits(got, eval_f_batch_reference(net.weights, x))
        net, x = kernel_case(np.random.default_rng(k), k, 3, 6, orthant=True)
        assert (eval_f_batch(net, x)[2::3] == 0.0).all()  # the negative-orthant rows

    @pytest.mark.parametrize("k", KERNEL_KS)
    def test_sign_robust_features_batch(self, k):
        for net, x in kernel_cases(k):
            got = sign_robust_features_batch(x, x @ net.weights.T)
            assert_same_bits(got, sign_robust_features_reference(x, net.weights))
        net, x = kernel_case(np.random.default_rng(k), k, 3, 6, orthant=False)
        at_kink = sign_robust_features_batch(x[1:2], x[1:2] @ net.weights.T)[0]  # neuron 0 scores exactly 0: active
        np.testing.assert_array_equal(at_kink[:3], x[1])
        np.testing.assert_array_equal(at_kink[3 * k : 3 * k + 3], -0.5 * x[1])

    @pytest.mark.parametrize("k", KERNEL_KS)
    def test_margin_mask_keeps_all_some_none(self, k):
        seen = set()
        for net, x in kernel_cases(k):
            proj = np.abs(x @ net.weights.T).min(axis=1)
            for nu in (0.0, float(np.median(proj)), float(proj.max()), 1.5):
                got = margin_mask(x @ net.weights.T, nu)
                np.testing.assert_array_equal(got, margin_mask_reference(x, net.weights, nu))
                seen.add("all" if got.all() else "none" if not got.any() else "some")
        assert seen == {"all", "some", "none"}
