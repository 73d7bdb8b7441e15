import math

import numpy as np
import pytest

from relu_bandits import (
    BoundParams,
    BoundVacuousError,
    FitConfig,
    FitError,
    ReluNetwork,
    Sample,
    UnsupportedDimensionError,
    alpha_bound,
    empirical_sq_loss,
    eval_f,
    fit_erm,
    h_bound,
    match_neurons,
    t0_schedule,
    zeta_bound,
)
from relu_bandits import estimation

from oracles import exhaustive_match, fit_erm_reference, mp_alpha, mp_h, mp_t0, mp_zeta


def unit_rows(rng, k, d):
    w = rng.standard_normal((k, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def noiseless_data(rng, net, n):
    X = rng.standard_normal((n, net.d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return [Sample(x=X[i], y=eval_f(net, X[i])) for i in range(n)]


class TestSample:
    def test_unit_norm_required(self):
        with pytest.raises(ValueError):
            Sample(x=np.array([1.0, 1.0]), y=0.0)

    def test_accepts_unit(self):
        s = Sample(x=np.array([0.6, 0.8]), y=1.5)
        assert s.y == 1.5


class TestFitConfigValidation:
    def test_bad_restarts(self):
        with pytest.raises(ValueError):
            FitConfig(restarts=0)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            FitConfig(step_size=-1.0)


class TestEmpiricalSqLoss:
    def test_exact_fit_zero(self):
        rng = np.random.default_rng(0)
        net = ReluNetwork(unit_rows(rng, 2, 3))
        data = noiseless_data(rng, net, 50)
        assert empirical_sq_loss(net, data) == pytest.approx(0.0, abs=1e-18)

    def test_single_residual(self):
        net = ReluNetwork(np.array([[1.0, 0.0]]))
        data = [Sample(x=np.array([1.0, 0.0]), y=2.0)]
        assert empirical_sq_loss(net, data) == pytest.approx(1.0, abs=1e-15)

    def test_two_residuals(self):
        net = ReluNetwork(np.array([[1.0, 0.0]]))
        data = [
            Sample(x=np.array([1.0, 0.0]), y=0.0),  # residual 1
            Sample(x=np.array([0.6, 0.8]), y=3.6),  # residual 3
        ]
        assert empirical_sq_loss(net, data) == pytest.approx(5.0, abs=1e-12)

    def test_empty_rejected(self):
        net = ReluNetwork(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            empirical_sq_loss(net, [])


class TestFitErm:
    def test_single_neuron_recovery(self):
        rng = np.random.default_rng(1)
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        data = noiseless_data(rng, truth, 200)
        est = fit_erm(data, 1, FitConfig(seed=0))
        err = min(
            np.linalg.norm(est.weights[0] - truth.weights[0]),
            np.linalg.norm(est.weights[0] + truth.weights[0]),
        )
        assert err < 0.05

    def test_degenerate_data_no_crash(self):
        x = np.array([1.0, 0.0])
        data = [Sample(x=x, y=0.7)] * 12
        est = fit_erm(data, 2, FitConfig(restarts=3, max_iters=100, seed=1))
        assert est.k == 2 and est.d == 2
        assert np.allclose(np.linalg.norm(est.weights, axis=1), 1.0, atol=1e-9)

    def test_noiseless_loss_not_worse_than_truth(self):
        rng = np.random.default_rng(2)
        truth = ReluNetwork(unit_rows(rng, 2, 2))
        data = noiseless_data(rng, truth, 100)
        est = fit_erm(data, 2, FitConfig(seed=2))
        assert empirical_sq_loss(est, data) <= empirical_sq_loss(truth, data) + 1e-6

    def test_all_restarts_failing(self):
        data = [Sample(x=np.array([1.0, 0.0]), y=float("inf"))]
        with pytest.raises(FitError):
            fit_erm(data, 1, FitConfig(restarts=2, max_iters=10, seed=3))

    def test_loss_lipschitz_in_parameters(self):
        # |L(net) - L(net2)| <= 4k * sum_i ||w_i - w2_i|| on noiseless data
        rng = np.random.default_rng(3)
        for _ in range(20):
            k, d = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            truth = ReluNetwork(unit_rows(rng, k, d))
            data = noiseless_data(rng, truth, 30)
            a = ReluNetwork(unit_rows(rng, k, d))
            b = ReluNetwork(unit_rows(rng, k, d))
            lhs = abs(empirical_sq_loss(a, data) - empirical_sq_loss(b, data))
            rhs = 4.0 * k * np.linalg.norm(a.weights - b.weights, axis=1).sum()
            assert lhs <= rhs + 1e-9


class TestFitErmMatchesPerRestartLoop:
    """The stacked descent returns exactly what one restart after another did."""

    @staticmethod
    def both(X, y, k, restarts, max_iters, step_size, tol, seed):
        data = [Sample(x=X[i], y=float(y[i])) for i in range(len(y))]
        cfg = FitConfig(restarts=restarts, max_iters=max_iters, step_size=step_size, tol=tol, seed=seed)
        try:
            got = fit_erm(data, k, cfg).weights
        except FitError:
            got = None
        try:
            want = fit_erm_reference(X, y, k, restarts, max_iters, step_size, tol, seed)
        except FitError:
            want = None
        return got, want

    def test_randomized_bit_identical(self):
        rng = np.random.default_rng(20240513)
        failures = 0
        for _ in range(150):
            k, d, n = int(rng.integers(1, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 300))
            truth = ReluNetwork(unit_rows(rng, k, d))
            X = unit_rows(rng, n, d)
            y = np.maximum(X @ truth.weights.T, 0.0).sum(axis=1) + rng.uniform(0.0, 0.5) * rng.standard_normal(n)
            if rng.random() < 0.1:
                y[int(rng.integers(n))] = rng.choice([np.inf, -np.inf, np.nan])
            tol = float(10.0 ** rng.uniform(-9.0, 0.5))  # the upper end freezes restarts early
            got, want = self.both(
                X, y, k, int(rng.integers(1, 12)), int(rng.integers(1, 150)),
                float(rng.uniform(0.05, 1.0)), tol, int(rng.integers(0, 2**31)),
            )
            failures += want is None
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
        assert failures > 0  # the non-finite-label cases were exercised

    def test_restarts_freeze_at_tol(self):
        rng = np.random.default_rng(4)
        truth = ReluNetwork(np.array([[0.6, 0.8]]))
        X = unit_rows(rng, 60, 2)
        y = np.maximum(X @ truth.weights.T, 0.0).sum(axis=1)
        short, want = self.both(X, y, 1, 4, 800, 0.2, 1e-6, 5)
        assert np.array_equal(short, want)
        long, _ = self.both(X, y, 1, 4, 1600, 0.2, 1e-6, 5)
        assert np.array_equal(short, long)  # the winner had frozen before 800 steps
        unfrozen, _ = self.both(X, y, 1, 4, 800, 0.2, 1e-300, 5)
        assert not np.array_equal(short, unfrozen)  # and freezing changed where it stopped
        first, want = self.both(X, y, 1, 4, 800, 0.2, 1e3, 5)
        assert np.array_equal(first, want)
        draws = np.random.default_rng(5).normal(size=(4, 1, 2))
        assert any(np.allclose(first, w / np.linalg.norm(w)) for w in draws)  # frozen at its draw

    def test_collapsed_row_redrawn(self, monkeypatch):
        # every initial row is e1 and the only sample is e1 with label 0: the
        # residual is 2, each row's gradient 4 * e1, and a step of 0.25 lands
        # every row on the origin
        draws = []
        real = estimation._unit_rows

        def first_rows_at_e1(rng, k, d):
            draws.append(k)
            if len(draws) <= 3:
                return np.tile([1.0, 0.0], (k, 1))
            return real(rng, k, d)

        monkeypatch.setattr(estimation, "_unit_rows", first_rows_at_e1)
        data = [Sample(x=np.array([1.0, 0.0]), y=0.0)]
        est = fit_erm(data, 2, FitConfig(restarts=3, max_iters=20, step_size=0.25, seed=0))
        assert len(draws) > 3  # the collapse branch redrew rows
        assert np.isfinite(est.weights).all()
        np.testing.assert_allclose(np.linalg.norm(est.weights, axis=1), 1.0, atol=1e-12)


class TestMatchNeurons:
    def test_permuted_and_flipped(self):
        est = ReluNetwork(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        truth = ReluNetwork(np.array([[1.0, 0.0], [0.0, 1.0]]))
        res = match_neurons(est, truth)
        assert res.perm[0] == 1 and res.signs[0] == -1
        assert res.perm[1] == 0 and res.signs[1] == 1
        assert res.max_error == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        rng = np.random.default_rng(4)
        net = ReluNetwork(unit_rows(rng, 3, 3))
        res = match_neurons(net, net)
        np.testing.assert_array_equal(res.perm, [0, 1, 2])
        assert np.all(res.signs == 1)
        assert res.max_error == pytest.approx(0.0, abs=1e-12)

    def test_sign_tie_prefers_plus(self):
        est = ReluNetwork(np.array([[0.0, 1.0]]))
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        res = match_neurons(est, truth)
        assert res.signs[0] == 1

    def test_errors_consistent_with_signs(self):
        rng = np.random.default_rng(5)
        truth = ReluNetwork(unit_rows(rng, 3, 2))
        est = ReluNetwork(unit_rows(rng, 3, 2))
        res = match_neurons(est, truth)
        for i in range(3):
            direct = np.linalg.norm(res.signs[i] * est.weights[res.perm[i]] - truth.weights[i])
            assert res.errors[i] == pytest.approx(direct, abs=1e-12)
        assert res.max_error == pytest.approx(res.errors.max(), abs=1e-15)

    def test_matches_exhaustive_on_random_cases(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            k, d = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            truth = ReluNetwork(unit_rows(rng, k, d))
            est = ReluNetwork(unit_rows(rng, k, d))
            res = match_neurons(est, truth)
            cost = float((res.errors**2).sum())
            brute, _, _ = exhaustive_match(est.weights, truth.weights)
            assert cost == pytest.approx(brute, rel=1e-10, abs=1e-12)


class TestZetaBound:
    def test_spot_value(self):
        p = BoundParams(k=1, d=1, sigma=1.0, delta=4.0 / math.e, T=3.0)
        z = zeta_bound(4096, p)
        assert z == pytest.approx(math.sqrt(math.log(65.0) + 1.0), abs=1e-12)
        assert z == pytest.approx(mp_zeta(4096, 1, 1, 1.0, 4.0 / math.e), abs=1e-12)

    def test_monotone_in_n(self):
        p = BoundParams(k=2, d=3, sigma=0.5, delta=0.1, T=100.0)
        for n in (16, 64, 256, 1024):
            assert zeta_bound(2 * n, p) < zeta_bound(n, p)

    def test_sigma_zero_equals_sigma_one_at_k1(self):
        a = BoundParams(k=1, d=1, sigma=0.0, delta=4.0 / math.e, T=3.0)
        b = BoundParams(k=1, d=1, sigma=1.0, delta=4.0 / math.e, T=3.0)
        assert zeta_bound(4096, a) == zeta_bound(4096, b)

    def test_bad_n(self):
        p = BoundParams(k=1, d=2, sigma=0.1, delta=0.1, T=10.0)
        with pytest.raises(ValueError):
            zeta_bound(0, p)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundParams(k=1, d=2, sigma=0.1, delta=0.0, T=10.0)


class TestAlphaBound:
    def test_zero_zeta(self):
        p = BoundParams(k=1, d=1, sigma=1.0, delta=0.5, T=3.0)
        assert alpha_bound(0.0, p) == 0.0

    def test_spot_value(self):
        p = BoundParams(k=1, d=1, sigma=1.0, delta=0.5, T=3.0)
        a = alpha_bound(0.5, p)
        assert a == pytest.approx(727.0 * math.pi ** -0.25, abs=1e-9)
        assert a == pytest.approx(mp_alpha(0.5, 1, 1), abs=1e-9)

    def test_linear_in_k(self):
        p1 = BoundParams(k=1, d=2, sigma=0.1, delta=0.5, T=3.0)
        p2 = BoundParams(k=2, d=2, sigma=0.1, delta=0.5, T=3.0)
        assert alpha_bound(1.0, p2) == pytest.approx(2.0 * alpha_bound(1.0, p1), rel=1e-12)

    def test_negative_zeta_rejected(self):
        p = BoundParams(k=1, d=2, sigma=0.1, delta=0.5, T=3.0)
        with pytest.raises(ValueError):
            alpha_bound(-1.0, p)


class TestHBound:
    def test_valid_grid_against_oracle(self):
        for eps in (0.001, 0.002, 0.003):
            got = h_bound(0.0, eps, 1, 3)
            want = mp_h(0.0, eps, 1, 3)
            assert want is not None
            assert got == pytest.approx(want, rel=1e-10)

    def test_frozen_values(self):
        assert h_bound(0.0, 0.001, 1, 3) == pytest.approx(0.0014874319811718861, rel=1e-12)
        assert h_bound(0.0, 0.002, 1, 3) == pytest.approx(0.003576545714528951, rel=1e-12)
        assert h_bound(0.0, 0.003, 1, 3) == pytest.approx(0.006725016587903917, rel=1e-12)

    def test_d2_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            h_bound(0.0, 0.01, 1, 2)

    def test_increasing_in_eta(self):
        lo = h_bound(0.0, 0.001, 1, 3)
        hi = h_bound(1e-10, 0.001, 1, 3)
        assert hi > lo

    def test_vacuous_denominator(self):
        # eta large enough to flip the denominator sign
        with pytest.raises(BoundVacuousError):
            h_bound(1.0, 0.001, 1, 3)

    def test_vacuous_agrees_with_oracle(self):
        # at this point the high-precision denominator is already negative
        assert mp_h(0.0, 0.01, 1, 3) is None
        with pytest.raises(BoundVacuousError):
            h_bound(0.0, 0.01, 1, 3)


class TestT0Schedule:
    def test_spot_value(self):
        p = BoundParams(k=1, d=1, sigma=1.0, delta=0.5, T=math.e)
        t = t0_schedule(1.0, p)
        assert t == pytest.approx(math.log(64.0 * math.e), abs=1e-12)
        assert t == pytest.approx(mp_t0(1.0, 1, 1, 1.0, math.e), abs=1e-12)

    def test_monotone_in_nu(self):
        p = BoundParams(k=2, d=3, sigma=0.5, delta=0.1, T=1000.0)
        assert t0_schedule(0.1, p) >= t0_schedule(0.2, p)

    def test_constant_once_t2_dominates(self):
        p = BoundParams(k=1, d=4, sigma=0.1, delta=0.1, T=1000.0)
        # d^6 >> d^2/nu^8 for nu near 1, so t2 wins and nu stops mattering
        assert t0_schedule(1.0, p) == t0_schedule(2.0, p)

    def test_bad_nu(self):
        p = BoundParams(k=1, d=2, sigma=0.1, delta=0.1, T=10.0)
        with pytest.raises(ValueError):
            t0_schedule(0.0, p)

    def test_small_T_rejected(self):
        p = BoundParams(k=1, d=2, sigma=0.1, delta=0.1, T=2.0)
        with pytest.raises(ValueError):
            t0_schedule(1.0, p)
