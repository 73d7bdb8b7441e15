import math

import numpy as np
import pytest

from relu_bandits import (
    DimensionMismatchError,
    LinearUcbState,
    ReluNetwork,
    UcbConfig,
    conf_radius,
    init_state,
    ridge_update,
    sign_robust_features_batch,
    ucb_select,
)
from relu_bandits.linear_ucb import REFACTOR_EVERY

from oracles import ellipsoid_max_index, ridge_solve


class TestUcbConfigValidation:
    def test_bad_delta(self):
        with pytest.raises(ValueError):
            UcbConfig(sigma=0.1, S=1.0, delta=1.0, lam=1.0)

    def test_bad_S(self):
        with pytest.raises(ValueError):
            UcbConfig(sigma=0.1, S=0.0, delta=0.5, lam=1.0)

    def test_bad_lam(self):
        with pytest.raises(ValueError):
            UcbConfig(sigma=0.1, S=1.0, delta=0.5, lam=0.0)


class TestInitState:
    def test_fresh_fields(self):
        s = init_state(3, lam=2.0)
        np.testing.assert_allclose(s.gram, 2.0 * np.eye(3))
        np.testing.assert_allclose(s.gram_inv, np.eye(3) / 2.0)
        np.testing.assert_array_equal(s.theta_hat, np.zeros(3))
        assert s.logdet == pytest.approx(3 * math.log(2.0))
        assert s.count == 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            init_state(0)
        with pytest.raises(ValueError):
            init_state(2, lam=-1.0)


class TestRidgeUpdate:
    def test_single_update_gram(self):
        s = ridge_update(init_state(2), [1.0, 0.0], 0.0)
        np.testing.assert_allclose(s.gram, [[2.0, 0.0], [0.0, 1.0]])
        assert s.count == 1

    def test_zero_rewards_keep_theta_zero(self):
        s = init_state(2)
        for x in ([1.0, 0.0], [0.5, 0.5], [0.0, 1.0]):
            s = ridge_update(s, x, 0.0)
        np.testing.assert_allclose(s.theta_hat, 0.0, atol=1e-15)

    def test_updates_commute_in_gram(self):
        a, b = [1.0, 2.0], [3.0, -1.0]
        s1 = ridge_update(ridge_update(init_state(2), a, 1.0), b, 2.0)
        s2 = ridge_update(ridge_update(init_state(2), b, 2.0), a, 1.0)
        np.testing.assert_allclose(s1.gram, s2.gram, atol=1e-12)

    def test_input_state_not_mutated(self):
        s0 = init_state(2)
        gram_before = s0.gram.copy()
        ridge_update(s0, [1.0, 1.0], 3.0)
        np.testing.assert_array_equal(s0.gram, gram_before)
        assert s0.count == 0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ridge_update(init_state(2), [1.0, 0.0, 0.0], 1.0)

    def test_nonfinite_feature(self):
        with pytest.raises(ValueError):
            ridge_update(init_state(2), [np.nan, 0.0], 1.0)

    def test_matches_batch_solve_across_refactor(self):
        # long enough to cross the periodic re-factorization
        rng = np.random.default_rng(7)
        n = REFACTOR_EVERY + 88
        X = rng.standard_normal((n, 3))
        y = rng.standard_normal(n)
        s = init_state(3, lam=0.5)
        for i in range(n):
            s = ridge_update(s, X[i], y[i])
        theta, V = ridge_solve(X, y, 0.5)
        np.testing.assert_allclose(s.theta_hat, theta, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(s.gram, V, rtol=1e-10)
        np.testing.assert_allclose(s.gram_inv @ s.gram, np.eye(3), atol=1e-8)
        _, want_logdet = np.linalg.slogdet(V)
        assert s.logdet == pytest.approx(want_logdet, rel=1e-8)

    def test_no_drift_over_ten_thousand_near_collinear_updates(self):
        # OFU-ReLU's lifted features at k=3, d=2 (2kd = 12) for actions within
        # a few degrees of one direction, with a small ridge: V ends up with
        # condition number ~2e6, and the last 272 updates since the final
        # re-factorization are pure Sherman-Morrison.
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 2))
        est = ReluNetwork(w / np.linalg.norm(w, axis=1, keepdims=True))
        n, lam = 10_000, 0.01
        ang = rng.uniform(0.0, 2.0 * np.pi) + 0.05 * rng.standard_normal(n)
        Phi = sign_robust_features_batch(np.stack([np.cos(ang), np.sin(ang)], axis=1), est)
        y = Phi @ rng.standard_normal(12) + 0.1 * rng.standard_normal(n)
        s = init_state(12, lam=lam)
        for i in range(n):
            s = ridge_update(s, Phi[i], y[i])
        assert s.since_refactor == n % REFACTOR_EVERY == 272
        theta, V = ridge_solve(Phi, y, lam)
        assert np.linalg.cond(V) > 1e6
        assert np.linalg.norm(s.theta_hat - theta) <= 1e-7 * np.linalg.norm(theta)
        inv = np.linalg.solve(V, np.eye(12))
        assert np.linalg.norm(s.gram_inv - inv) <= 1e-8 * np.linalg.norm(inv)
        sign, want_logdet = np.linalg.slogdet(V)
        assert sign > 0 and abs(s.logdet - want_logdet) <= 1e-8

    def test_gram_stays_spd(self):
        rng = np.random.default_rng(8)
        s = init_state(2, lam=0.25)
        for _ in range(40):
            s = ridge_update(s, rng.standard_normal(2), rng.standard_normal())
        np.testing.assert_allclose(s.gram, s.gram.T, atol=1e-9)
        assert np.linalg.eigvalsh(s.gram).min() >= 0.25 - 1e-9


class TestConfRadius:
    def test_fresh_noise_free(self):
        s = init_state(4, lam=2.0)
        cfg = UcbConfig(sigma=0.0, S=3.0, delta=0.5, lam=2.0)
        assert conf_radius(s, cfg) == pytest.approx(math.sqrt(2.0) * 3.0, rel=1e-12)

    def test_fresh_unit_everything(self):
        # det ratio 1, so the log term is just 2*log(1/delta) = 2
        s = init_state(2, lam=1.0)
        cfg = UcbConfig(sigma=1.0, S=1.0, delta=1.0 / math.e, lam=1.0)
        assert conf_radius(s, cfg) == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-12)

    def test_nondecreasing_under_updates(self):
        rng = np.random.default_rng(9)
        s = init_state(3)
        cfg = UcbConfig(sigma=0.5, S=1.0, delta=0.1, lam=1.0)
        prev = conf_radius(s, cfg)
        for _ in range(25):
            s = ridge_update(s, rng.standard_normal(3), rng.standard_normal())
            cur = conf_radius(s, cfg)
            assert cur >= prev - 1e-12
            prev = cur

    def test_lambda_mismatch(self):
        s = init_state(2, lam=1.0)
        cfg = UcbConfig(sigma=0.1, S=1.0, delta=0.5, lam=2.0)
        with pytest.raises(ValueError):
            conf_radius(s, cfg)

    def test_floor_at_sqrt_lam_S(self):
        rng = np.random.default_rng(10)
        s = init_state(2, lam=3.0)
        for _ in range(10):
            s = ridge_update(s, rng.standard_normal(2), 0.0)
        cfg = UcbConfig(sigma=0.2, S=1.5, delta=0.3, lam=3.0)
        assert conf_radius(s, cfg) >= math.sqrt(3.0) * 1.5


class TestUcbSelect:
    def test_value_dominance(self):
        # theta_hat = [1, 0]; exploration bonus too small to matter
        s = ridge_update(init_state(2), [1.0, 0.0], 2.0)
        np.testing.assert_allclose(s.theta_hat, [1.0, 0.0], atol=1e-12)
        cfg = UcbConfig(sigma=0.0, S=1e-6, delta=0.5, lam=1.0)
        assert ucb_select(s, cfg, [[1.0, 0.0], [0.0, 1.0]]) == 0

    def test_tie_break_lowest_index(self):
        s = init_state(2)
        cfg = UcbConfig(sigma=1.0, S=1.0, delta=0.5, lam=1.0)
        assert ucb_select(s, cfg, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]) == 0

    def test_exploration_prefers_unseen_direction(self):
        # gram = diag(1, 4): ||[1,0]||_{V^-1} = 1 beats ||[0,1]||_{V^-1} = 1/2
        s = ridge_update(init_state(2), [0.0, math.sqrt(3.0)], 0.0)
        np.testing.assert_allclose(s.gram, [[1.0, 0.0], [0.0, 4.0]], atol=1e-12)
        cfg = UcbConfig(sigma=0.0, S=1.0, delta=0.5, lam=1.0)  # beta = 1
        assert ucb_select(s, cfg, [[1.0, 0.0], [0.0, 1.0]]) == 0

    def test_empty_candidates(self):
        s = init_state(2)
        cfg = UcbConfig(sigma=1.0, S=1.0, delta=0.5, lam=1.0)
        with pytest.raises(ValueError):
            ucb_select(s, cfg, np.empty((0, 2)))

    def test_dim_mismatch(self):
        s = init_state(2)
        cfg = UcbConfig(sigma=1.0, S=1.0, delta=0.5, lam=1.0)
        with pytest.raises(DimensionMismatchError):
            ucb_select(s, cfg, [[1.0, 0.0, 0.0]])

    def test_matches_ellipsoid_sampling(self):
        # closed form equals the joint argmax over arm x ellipsoid parameter
        rng = np.random.default_rng(11)
        cfg = UcbConfig(sigma=0.3, S=1.0, delta=0.2, lam=1.0)
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            s = init_state(dim)
            for _ in range(6):
                s = ridge_update(s, rng.standard_normal(dim), rng.standard_normal())
            m = int(rng.integers(2, 6))
            cands = rng.standard_normal((m, dim))
            beta = conf_radius(s, cfg)
            got = ucb_select(s, cfg, cands)
            oracle_idx, sampled = ellipsoid_max_index(s.theta_hat, s.gram, beta, cands, rng)
            quad = ((cands @ s.gram_inv) * cands).sum(axis=1)
            closed = cands @ s.theta_hat + beta * np.sqrt(np.maximum(quad, 0.0))
            # sampling never exceeds the closed form and approaches it closely
            assert np.all(sampled <= closed + 1e-9)
            np.testing.assert_allclose(sampled, closed, rtol=2e-3, atol=2e-3)
            top = np.sort(closed)[::-1]
            if len(top) == 1 or top[0] - top[1] > 1e-2:
                assert got == oracle_idx
            assert closed[got] == pytest.approx(closed.max(), abs=1e-12)
