import math

import numpy as np
import pytest

from relu_bandits import ReluNetwork, UcbConfig
from relu_bandits.linear_ucb import DELTA_MIN, LAMBDA_MIN, REFACTOR_EVERY, LinearUcbState, conf_radius, ridge_update, ucb_select
from relu_bandits.relu_model import _row_sum, sign_robust_features_batch

from oracles import (
    ellipsoid_max_index,
    ridge_init_reference,
    ridge_solve,
    ridge_update_reference,
    ucb_quad_reference,
    ucb_select_reference,
)


def theta_of(s: LinearUcbState) -> np.ndarray:
    return s.gram_inv @ s.moment


class TestUcbConfigValidation:
    def test_bad_delta(self):
        with pytest.raises(ValueError):
            UcbConfig(sigma=0.1, S=1.0, delta=1.0, lam=1.0)

    def test_delta_floor_is_the_last_float_with_an_infinite_reciprocal(self):
        # the radius takes log(1/delta): the open floor admits exactly the deltas whose reciprocal is finite
        assert 1.0 / DELTA_MIN == math.inf
        with pytest.raises(ValueError, match=r"^delta must be a number in \(5\.56268e-309, 1\)"):
            UcbConfig(sigma=0.1, S=1.0, delta=DELTA_MIN)
        cfg = UcbConfig(sigma=0.1, S=1.0, delta=math.nextafter(DELTA_MIN, 1.0))
        assert math.isfinite(conf_radius(LinearUcbState(2), cfg))

    def test_bad_S(self):
        with pytest.raises(ValueError):
            UcbConfig(sigma=0.1, S=0.0, delta=0.5, lam=1.0)

    def test_bad_lam(self):
        with pytest.raises(ValueError):
            UcbConfig(sigma=0.1, S=1.0, delta=0.5, lam=0.0)

    @pytest.mark.parametrize("field", ["sigma", "S"])
    def test_nan_rejected(self, field):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                UcbConfig(**{"sigma": 0.1, "S": 1.0, "delta": 0.5, "lam": 1.0, field: value})


class TestInitState:
    def test_fresh_fields(self):
        s = LinearUcbState(3, lam=2.0)
        np.testing.assert_allclose(s.gram, 2.0 * np.eye(3))
        np.testing.assert_allclose(s.gram_inv, np.eye(3) / 2.0)
        np.testing.assert_array_equal(theta_of(s), np.zeros(3))
        assert s.logdet == pytest.approx(3 * math.log(2.0))
        assert s.count == 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            LinearUcbState(0)
        with pytest.raises(ValueError):
            LinearUcbState(2, lam=-1.0)

    @pytest.mark.parametrize("dim", [2.5, True, math.inf])
    def test_integer_dim_named(self, dim):
        # unchecked, True builds a 1-dim state and 2.5 fails inside np.eye
        with pytest.raises(ValueError, match=r"^dim must be an integer in \[1, inf\)"):
            LinearUcbState(dim)

    @pytest.mark.parametrize("lam", [float("nan"), 1e-300, 0.0, -1.0, math.inf])
    def test_lambda_floor_is_the_configs(self, lam):
        # NaN would make logdet nan, 1e-300 a gram_inv of 1e300 * I and inf a gram of inf * I
        with pytest.raises(ValueError) as config_err:
            UcbConfig(sigma=0.1, S=1.0, delta=0.5, lam=lam)
        with pytest.raises(ValueError, match=rf"^lambda must be a number in \[{LAMBDA_MIN:g}, inf\)") as state_err:
            LinearUcbState(2, lam=lam)
        assert str(state_err.value) == str(config_err.value)
        assert LinearUcbState(2, lam=LAMBDA_MIN).lam == LAMBDA_MIN


class TestRidgeUpdate:
    def test_single_update_gram(self):
        s = LinearUcbState(2)
        ridge_update(s, [1.0, 0.0], 0.0)
        np.testing.assert_allclose(s.gram, [[2.0, 0.0], [0.0, 1.0]])
        assert s.count == 1

    def test_zero_rewards_keep_theta_zero(self):
        s = LinearUcbState(2)
        for x in ([1.0, 0.0], [0.5, 0.5], [0.0, 1.0]):
            ridge_update(s, x, 0.0)
        np.testing.assert_allclose(theta_of(s), 0.0, atol=1e-15)

    def test_updates_commute_in_gram(self):
        a, b = [1.0, 2.0], [3.0, -1.0]
        s1, s2 = LinearUcbState(2), LinearUcbState(2)
        ridge_update(s1, a, 1.0)
        ridge_update(s1, b, 2.0)
        ridge_update(s2, b, 2.0)
        ridge_update(s2, a, 1.0)
        np.testing.assert_allclose(s1.gram, s2.gram, atol=1e-12)

    def test_input_state_not_mutated(self):
        # the owner's state is updated in place, nothing else is: not a second
        # state, which never shares an array with it, nor the feature row
        s0, s1 = LinearUcbState(2), LinearUcbState(2)
        x = np.array([1.0, 1.0])
        for t in range(1, REFACTOR_EVERY + 2):  # across the re-factorization
            assert ridge_update(s0, x, 3.0) is None
            assert s0.count == t
        np.testing.assert_array_equal(x, [1.0, 1.0])
        np.testing.assert_array_equal(s0.gram, np.eye(2) + (REFACTOR_EVERY + 1) * np.ones((2, 2)))
        for name in ("gram", "moment", "gram_inv"):
            assert not np.shares_memory(getattr(s0, name), getattr(s1, name))
            assert not np.shares_memory(getattr(s0, name), x)
        np.testing.assert_array_equal(s1.gram, np.eye(2))
        np.testing.assert_array_equal(s1.gram_inv, np.eye(2))
        assert s1.count == 0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match=r"^feature has shape \(3,\), expected \(2,\) or \(n, 2\)"):
            ridge_update(LinearUcbState(2), [1.0, 0.0, 0.0], 1.0)

    def test_nonfinite_feature(self):
        with pytest.raises(ValueError):
            ridge_update(LinearUcbState(2), [np.nan, 0.0], 1.0)

    def test_matches_batch_solve_across_refactor(self):
        # long enough to cross the periodic re-factorization
        rng = np.random.default_rng(7)
        n = REFACTOR_EVERY + 88
        X = rng.standard_normal((n, 3))
        y = rng.standard_normal(n)
        s = LinearUcbState(3, lam=0.5)
        for i in range(n):
            ridge_update(s, X[i], y[i])
        theta, V = ridge_solve(X, y, 0.5)
        np.testing.assert_allclose(theta_of(s), theta, rtol=1e-8, atol=1e-10)
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
        X = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        Phi = sign_robust_features_batch(X, X @ est.weights.T)
        y = Phi @ rng.standard_normal(12) + 0.1 * rng.standard_normal(n)
        s = LinearUcbState(12, lam=lam)
        for i in range(n):
            ridge_update(s, Phi[i], y[i])
        assert s.count % REFACTOR_EVERY == n % REFACTOR_EVERY == 272
        theta, V = ridge_solve(Phi, y, lam)
        assert np.linalg.cond(V) > 1e6
        assert np.linalg.norm(theta_of(s) - theta) <= 1e-7 * np.linalg.norm(theta)
        inv = np.linalg.solve(V, np.eye(12))
        assert np.linalg.norm(s.gram_inv - inv) <= 1e-8 * np.linalg.norm(inv)
        sign, want_logdet = np.linalg.slogdet(V)
        assert sign > 0 and abs(s.logdet - want_logdet) <= 1e-8

    def test_gram_stays_spd(self):
        rng = np.random.default_rng(8)
        s = LinearUcbState(2, lam=0.25)
        for _ in range(40):
            ridge_update(s, rng.standard_normal(2), rng.standard_normal())
        np.testing.assert_allclose(s.gram, s.gram.T, atol=1e-9)
        assert np.linalg.eigvalsh(s.gram).min() >= 0.25 - 1e-9


    @pytest.mark.parametrize("dim", [2, 12, 40])  # d, 2kd at k=3 d=2, 2kd at k=10 d=2
    def test_matches_copy_on_update_reference(self, dim):
        # the in-place engine against the copy-on-update one it replaced, bit
        # for bit after every update of a stream crossing two re-factorizations
        rng = np.random.default_rng(40 + dim)
        s, ref = LinearUcbState(dim, lam=0.01), ridge_init_reference(dim, 0.01)
        X = rng.standard_normal((2 * REFACTOR_EVERY + 30, dim))
        X[1::2] = X[0] + 0.05 * X[1::2]  # half the rows near one direction
        for x, y in zip(X, rng.standard_normal(len(X))):
            ridge_update(s, x, y)
            ref = ridge_update_reference(ref, x, y, REFACTOR_EVERY)
            for got, want in ((s.gram, ref.gram), (s.moment, ref.moment), (s.gram_inv, ref.gram_inv),
                              (theta_of(s), ref.theta_hat)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert s.logdet == ref.logdet
            assert s.count % REFACTOR_EVERY == ref.since_refactor


class TestRidgeBlock:
    """An (n, dim) block of rows with n rewards, as a refit's replay passes it."""

    @staticmethod
    def lifted(n, seed):
        # OFU-ReLU+'s replay at k=3, d=2: lifted unit rows under an estimate, lambda 0.01
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((3, 2))
        est = ReluNetwork(w / np.linalg.norm(w, axis=1, keepdims=True))
        X = rng.standard_normal((n, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        Phi = sign_robust_features_batch(X, X @ est.weights.T)
        return Phi, Phi @ rng.standard_normal(12) + 0.1 * rng.standard_normal(n)

    @pytest.mark.parametrize("n", [1, 70, REFACTOR_EVERY + 88])
    def test_block_equals_row_replay(self, n):
        Phi, y = self.lifted(n, 60 + n)
        block, rows = LinearUcbState(12, lam=0.01), LinearUcbState(12, lam=0.01)
        assert ridge_update(block, Phi, y) is None
        for x, r in zip(Phi, y):
            ridge_update(rows, x, r)
        assert block.count == rows.count == n
        for got, want in ((block.gram, rows.gram), (block.moment, rows.moment), (theta_of(block), theta_of(rows))):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert block.logdet == pytest.approx(rows.logdet, rel=1e-10)

    def test_empty_block_changes_nothing(self):
        s, fresh = LinearUcbState(12, lam=0.01), LinearUcbState(12, lam=0.01)
        ridge_update(s, np.empty((0, 12)), np.empty(0))
        for name in ("gram", "moment", "gram_inv"):
            assert np.array_equal(getattr(s, name).view(np.uint64), getattr(fresh, name).view(np.uint64))
        assert (s.logdet, s.count) == (fresh.logdet, 0)

    @pytest.mark.parametrize(
        "rows,rewards,match",
        [
            pytest.param(np.ones((3, 4)), np.ones(3), r"feature has shape \(3, 4\)", id="width"),
            pytest.param(np.array([[1.0, 0.0, 0.0], [np.inf, 0.0, 0.0]]), np.ones(2),
                         "feature contains non-finite entries", id="non-finite"),
            pytest.param(np.ones((3, 3)), np.ones(2), r"3 feature rows have rewards of shape \(2,\)", id="reward-count"),
        ],
    )
    def test_bad_block_raises_the_row_errors(self, rows, rewards, match):
        s = LinearUcbState(3)
        with pytest.raises(ValueError, match=match):
            ridge_update(s, rows, rewards)
        assert s.count == 0 and np.array_equal(s.gram, np.eye(3))  # rejected before any change

    def test_refactor_cadence_holds_after_a_block(self, monkeypatch):
        # a block re-factorizes at once; single rows after it still do at
        # every multiple of REFACTOR_EVERY of the count, a second block again at once
        counts = []
        real_inv = np.linalg.inv
        s = LinearUcbState(12, lam=0.01)

        def counting_inv(a):
            counts.append(s.count)
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        Phi, y = self.lifted(2 * REFACTOR_EVERY + 10, 5)
        first, second = 500, 600
        ridge_update(s, Phi[:first], y[:first])
        for x, r in zip(Phi[first:second], y[first:second]):
            ridge_update(s, x, r)
        ridge_update(s, Phi[second:second + 100], y[second:second + 100])
        for x, r in zip(Phi[second + 100:], y[second + 100:]):
            ridge_update(s, x, r)
        assert counts == [first, REFACTOR_EVERY, second + 100, 2 * REFACTOR_EVERY]
        assert s.count == len(Phi)


class TestConfRadius:
    def test_fresh_noise_free(self):
        s = LinearUcbState(4, lam=2.0)
        cfg = UcbConfig(sigma=0.0, S=3.0, delta=0.5, lam=2.0)
        assert conf_radius(s, cfg) == pytest.approx(math.sqrt(2.0) * 3.0, rel=1e-12)

    def test_fresh_unit_everything(self):
        # det ratio 1, so the log term is just 2*log(1/delta) = 2
        s = LinearUcbState(2, lam=1.0)
        cfg = UcbConfig(sigma=1.0, S=1.0, delta=1.0 / math.e, lam=1.0)
        assert conf_radius(s, cfg) == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-12)

    def test_nondecreasing_under_updates(self):
        rng = np.random.default_rng(9)
        s = LinearUcbState(3)
        cfg = UcbConfig(sigma=0.5, S=1.0, delta=0.1, lam=1.0)
        prev = conf_radius(s, cfg)
        for _ in range(25):
            ridge_update(s, rng.standard_normal(3), rng.standard_normal())
            cur = conf_radius(s, cfg)
            assert cur >= prev - 1e-12
            prev = cur

    def test_lambda_mismatch(self):
        s = LinearUcbState(2, lam=1.0)
        cfg = UcbConfig(sigma=0.1, S=1.0, delta=0.5, lam=2.0)
        with pytest.raises(ValueError):
            conf_radius(s, cfg)

    def test_floor_at_sqrt_lam_S(self):
        rng = np.random.default_rng(10)
        s = LinearUcbState(2, lam=3.0)
        for _ in range(10):
            ridge_update(s, rng.standard_normal(2), 0.0)
        cfg = UcbConfig(sigma=0.2, S=1.5, delta=0.3, lam=3.0)
        assert conf_radius(s, cfg) >= math.sqrt(3.0) * 1.5


class TestUcbSelect:
    def test_value_dominance(self):
        # theta_hat = [1, 0]; exploration bonus too small to matter
        s = LinearUcbState(2)
        ridge_update(s, [1.0, 0.0], 2.0)
        np.testing.assert_allclose(theta_of(s), [1.0, 0.0], atol=1e-12)
        cfg = UcbConfig(sigma=0.0, S=1e-6, delta=0.5, lam=1.0)
        assert ucb_select(s, cfg, [[1.0, 0.0], [0.0, 1.0]]) == 0

    def test_tie_break_lowest_index(self):
        s = LinearUcbState(2)
        cfg = UcbConfig(sigma=1.0, S=1.0, delta=0.5, lam=1.0)
        assert ucb_select(s, cfg, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]) == 0

    def test_exploration_prefers_unseen_direction(self):
        # gram = diag(1, 4): ||[1,0]||_{V^-1} = 1 beats ||[0,1]||_{V^-1} = 1/2
        s = LinearUcbState(2)
        ridge_update(s, [0.0, math.sqrt(3.0)], 0.0)
        np.testing.assert_allclose(s.gram, [[1.0, 0.0], [0.0, 4.0]], atol=1e-12)
        cfg = UcbConfig(sigma=0.0, S=1.0, delta=0.5, lam=1.0)  # beta = 1
        assert ucb_select(s, cfg, [[1.0, 0.0], [0.0, 1.0]]) == 0

    def test_empty_candidates(self):
        s = LinearUcbState(2)
        cfg = UcbConfig(sigma=1.0, S=1.0, delta=0.5, lam=1.0)
        with pytest.raises(ValueError):
            ucb_select(s, cfg, np.empty((0, 2)))

    def test_dim_mismatch(self):
        s = LinearUcbState(2)
        cfg = UcbConfig(sigma=1.0, S=1.0, delta=0.5, lam=1.0)
        with pytest.raises(ValueError, match=r"^candidates have shape \(1, 3\), expected \(m, 2\)"):
            ucb_select(s, cfg, [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^candidates have shape \(2,\)"):  # one candidate is a (1, dim) array, not a bare row
            ucb_select(s, cfg, [1.0, 0.0])

    def test_matches_ellipsoid_sampling(self):
        # closed form equals the joint argmax over arm x ellipsoid parameter
        rng = np.random.default_rng(11)
        cfg = UcbConfig(sigma=0.3, S=1.0, delta=0.2, lam=1.0)
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            s = LinearUcbState(dim)
            for _ in range(6):
                ridge_update(s, rng.standard_normal(dim), rng.standard_normal())
            m = int(rng.integers(2, 6))
            cands = rng.standard_normal((m, dim))
            beta = conf_radius(s, cfg)
            got = ucb_select(s, cfg, cands)
            oracle_idx, sampled = ellipsoid_max_index(theta_of(s), s.gram, beta, cands, rng)
            quad = ((cands @ s.gram_inv) * cands).sum(axis=1)
            closed = cands @ theta_of(s) + beta * np.sqrt(np.maximum(quad, 0.0))
            # sampling never exceeds the closed form and approaches it closely
            assert np.all(sampled <= closed + 1e-9)
            np.testing.assert_allclose(sampled, closed, rtol=2e-3, atol=2e-3)
            top = np.sort(closed)[::-1]
            if len(top) == 1 or top[0] - top[1] > 1e-2:
                assert got == oracle_idx
            assert closed[got] == pytest.approx(closed.max(), abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 7, 8, 9, 6, 18, 42, 48, 60])  # d, and 2kd for k in (1, 3, 7, 8, 10)
    def test_matches_reference(self, dim):
        rng = np.random.default_rng(dim)
        cfg = UcbConfig(sigma=0.3, S=1.0, delta=0.2, lam=0.5)
        s = LinearUcbState(dim, 0.5)
        for _ in range(2 * dim):
            ridge_update(s, rng.standard_normal(dim), rng.standard_normal())
        beta = conf_radius(s, cfg)
        for m in (1, 5, 1000):
            feats = rng.standard_normal((m, dim))
            feats[::4, 0] = 0.0
            got = ucb_select(s, cfg, feats)
            assert got == ucb_select_reference(theta_of(s), s.gram_inv, beta, feats)
            # the quadratic form, summed the way ucb_select sums it
            quad = _row_sum((feats @ s.gram_inv) * feats)
            want = ucb_quad_reference(feats, s.gram_inv)
            assert np.array_equal(quad.view(np.uint64), want.view(np.uint64))
