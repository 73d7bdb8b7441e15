import math
import sys

import numpy as np
import pytest

from relu_bandits import (
    BoundParams,
    BoundVacuousError,
    FitConfig,
    FitError,
    DimensionMismatchError,
    ReluNetwork,
    UnsupportedDimensionError,
    alpha_bound,
    eval_f_batch,
    fit_erm,
    h_bound,
    match_neurons,
    t0_schedule,
    zeta_bound,
)
from relu_bandits import estimation

from oracles import (
    empirical_sq_loss, exhaustive_match, fit_erm_reference, mp_alpha, mp_h, mp_sphere_area, mp_t0, mp_zeta,
)


def unit_rows(rng, k, d):
    w = rng.standard_normal((k, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def noiseless_data(rng, net, n):
    X = rng.standard_normal((n, net.d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X, eval_f_batch(net, X)


class TestSample:
    """Fit data is checked once per call, over all of X and y."""

    def test_unit_norm_required(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="unit norm"):
            fit_erm(X, [0.0, 0.0], 1, FitConfig(restarts=1, max_iters=1))

    def test_non_finite_rows_rejected(self):
        # a NaN row has no norm to compare, so the finite check must catch it
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                fit_erm([[1.0, 0.0], [bad, 0.0]], [0.0, 0.0], 1, FitConfig(restarts=1, max_iters=1))

    def test_accepts_unit(self):
        est = fit_erm([[0.6, 0.8]], [1.5], 1, FitConfig(restarts=1, max_iters=1))
        assert est.k == 1 and est.d == 2

    def test_label_count_must_match(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        for y in ([0.0, 0.0, 1.0], [0.0]):
            with pytest.raises(DimensionMismatchError, match="y has shape"):
                fit_erm(X, y, 1, FitConfig(restarts=1, max_iters=1))


class TestFitConfigValidation:
    def test_bad_restarts(self):
        with pytest.raises(ValueError):
            FitConfig(restarts=0)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            FitConfig(step_size=-1.0)

    @pytest.mark.parametrize(
        "field,value", [("restarts", 2.5), ("restarts", True), ("max_iters", True), ("max_iters", 3.0), ("seed", 1.5)]
    )
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            FitConfig(**{field: value})

    @pytest.mark.parametrize("field", ["step_size", "tol"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match="step_size and tol must be positive"):
            FitConfig(**{field: math.nan})


class TestBoundParamsValidation:
    @pytest.mark.parametrize("field,value", [("k", 2.5), ("k", True), ("d", 2.0), ("d", True)])
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            BoundParams(**{"k": 1, "d": 2, "sigma": 0.1, "delta": 0.1, field: value})

    @pytest.mark.parametrize(
        "field,message", [("sigma", "sigma"), ("delta", "delta"), ("C1", "C1 and C2"), ("C2", "C1 and C2")]
    )
    def test_nan_rejected(self, field, message):
        with pytest.raises(ValueError, match=f"^{message} must be"):
            BoundParams(**{"k": 1, "d": 2, "sigma": 0.1, "delta": 0.1, field: math.nan})


class TestEmpiricalSqLoss:
    def test_exact_fit_zero(self):
        rng = np.random.default_rng(0)
        net = ReluNetwork(unit_rows(rng, 2, 3))
        data = noiseless_data(rng, net, 50)
        assert empirical_sq_loss(net, *data) == pytest.approx(0.0, abs=1e-18)

    def test_single_residual(self):
        net = ReluNetwork(np.array([[1.0, 0.0]]))
        assert empirical_sq_loss(net, [[1.0, 0.0]], [2.0]) == pytest.approx(1.0, abs=1e-15)

    def test_two_residuals(self):
        net = ReluNetwork(np.array([[1.0, 0.0]]))
        X = [[1.0, 0.0], [0.6, 0.8]]
        y = [0.0, 3.6]  # residuals 1 and 3
        assert empirical_sq_loss(net, X, y) == pytest.approx(5.0, abs=1e-12)

    def test_empty_rejected(self):
        # the loss of no samples is undefined; the package's data check refuses them
        with pytest.raises(ValueError, match="nonempty"):
            fit_erm(np.empty((0, 2)), [], 1, FitConfig(restarts=1, max_iters=1))


class TestFitErm:
    def test_single_neuron_recovery(self):
        rng = np.random.default_rng(1)
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        data = noiseless_data(rng, truth, 200)
        est = fit_erm(*data, 1, FitConfig(seed=0))
        err = min(
            np.linalg.norm(est.weights[0] - truth.weights[0]),
            np.linalg.norm(est.weights[0] + truth.weights[0]),
        )
        assert err < 0.05

    def test_degenerate_data_no_crash(self):
        X = np.tile([1.0, 0.0], (12, 1))
        est = fit_erm(X, np.full(12, 0.7), 2, FitConfig(restarts=3, max_iters=100, seed=1))
        assert est.k == 2 and est.d == 2
        assert np.allclose(np.linalg.norm(est.weights, axis=1), 1.0, atol=1e-9)

    def test_noiseless_loss_not_worse_than_truth(self):
        rng = np.random.default_rng(2)
        truth = ReluNetwork(unit_rows(rng, 2, 2))
        data = noiseless_data(rng, truth, 100)
        est = fit_erm(*data, 2, FitConfig(seed=2))
        assert empirical_sq_loss(est, *data) <= empirical_sq_loss(truth, *data) + 1e-6

    def test_all_restarts_failing(self):
        with pytest.raises(FitError):
            fit_erm([[1.0, 0.0]], [float("inf")], 1, FitConfig(restarts=2, max_iters=10, seed=3))

    def test_loss_lipschitz_in_parameters(self):
        # |L(net) - L(net2)| <= 4k * sum_i ||w_i - w2_i|| on noiseless data
        rng = np.random.default_rng(3)
        for _ in range(20):
            k, d = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            truth = ReluNetwork(unit_rows(rng, k, d))
            data = noiseless_data(rng, truth, 30)
            a = ReluNetwork(unit_rows(rng, k, d))
            b = ReluNetwork(unit_rows(rng, k, d))
            lhs = abs(empirical_sq_loss(a, *data) - empirical_sq_loss(b, *data))
            rhs = 4.0 * k * np.linalg.norm(a.weights - b.weights, axis=1).sum()
            assert lhs <= rhs + 1e-9


class TestFitErmMatchesPerRestartLoop:
    """The stacked descent returns exactly what one restart after another did."""

    @staticmethod
    def both(X, y, k, restarts, max_iters, step_size, tol, seed):
        cfg = FitConfig(restarts=restarts, max_iters=max_iters, step_size=step_size, tol=tol, seed=seed)
        try:
            got = fit_erm(X, y, k, cfg).weights
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

    @pytest.mark.parametrize("k,n", [(3, 70), (10, 20)])  # plus-refit's last fit; fig2b's fit at t0 = 20
    def test_shipped_fit_shapes_bit_identical(self, k, n):
        # the randomized cases stop below 150 steps at k <= 5; these run the
        # shipped FitConfig() defaults, 10 restarts of up to 600 steps
        rng = np.random.default_rng(1000 * k + n)
        truth = ReluNetwork(unit_rows(rng, k, 2))
        X = unit_rows(rng, n, 2)
        y = eval_f_batch(truth, X) + 0.1 * rng.standard_normal(n)
        cfg = FitConfig()
        got, want = self.both(X, y, k, cfg.restarts, cfg.max_iters, cfg.step_size, cfg.tol, cfg.seed)
        assert want is not None and np.array_equal(got, want)
        short, _ = self.both(X, y, k, cfg.restarts, 150, cfg.step_size, cfg.tol, cfg.seed)
        assert not np.array_equal(got, short)  # steps past the randomized cases' range decided the fit

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
        est = fit_erm([[1.0, 0.0]], [0.0], 2, FitConfig(restarts=3, max_iters=20, step_size=0.25, seed=0))
        assert len(draws) > 3  # the collapse branch redrew rows
        assert np.isfinite(est.weights).all()
        np.testing.assert_allclose(np.linalg.norm(est.weights, axis=1), 1.0, atol=1e-12)


class TestProjectedStepStop:
    """A restart freezes once its projected step would move its rows by at most step_size * tol."""

    @staticmethod
    def noisy_data():
        rng = np.random.default_rng(1)
        truth = ReluNetwork(unit_rows(rng, 3, 2))
        X = unit_rows(rng, 70, 2)
        return X, eval_f_batch(truth, X) + 0.1 * rng.standard_normal(70)

    def test_noisy_fit_stops_before_max_iters(self):
        # every restart froze within 500 of the 600 steps, so stopping there or
        # running on to 5000 returns the same bits
        X, y = self.noisy_data()
        est = fit_erm(X, y, 3, FitConfig()).weights
        for max_iters in (500, 5000):
            assert np.array_equal(fit_erm(X, y, 3, FitConfig(max_iters=max_iters)).weights, est)

    def test_agrees_with_fit_that_never_freezes(self):
        # at tol=1e-300 no restart freezes and each runs all 600 steps
        X, y = self.noisy_data()
        est = fit_erm(X, y, 3, FitConfig())
        full = fit_erm(X, y, 3, FitConfig(tol=1e-300))
        assert not np.array_equal(est.weights, full.weights)
        assert match_neurons(est, full).max_error <= 1e-7

    def test_radial_step_that_flips_the_row_is_taken(self):
        # the only sample is the restart's initial row w0 with label -2: the
        # gradient 6 w0 is radial (its tangential part is 0) and the step of
        # 0.2 * 6 > 1 lands on -0.2 w0, which projects to -w0, where the
        # gradient vanishes
        w0 = np.random.default_rng(7).normal(size=(1, 2))
        w0 /= np.linalg.norm(w0)
        est = fit_erm(w0, [-2.0], 1, FitConfig(restarts=1, seed=7)).weights
        np.testing.assert_allclose(est, -w0, atol=1e-12)
        assert np.array_equal(est, fit_erm_reference(w0, np.array([-2.0]), 1, 1, 600, 0.2, 1e-9, 7))


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
        p = BoundParams(k=1, d=1, sigma=1.0, delta=4.0 / math.e)
        z = zeta_bound(4096, p)
        assert z == pytest.approx(math.sqrt(math.log(65.0) + 1.0), abs=1e-12)
        assert z == pytest.approx(mp_zeta(4096, 1, 1, 1.0, 4.0 / math.e), abs=1e-12)

    def test_monotone_in_n(self):
        p = BoundParams(k=2, d=3, sigma=0.5, delta=0.1)
        for n in (16, 64, 256, 1024):
            assert zeta_bound(2 * n, p) < zeta_bound(n, p)

    def test_sigma_zero_equals_sigma_one_at_k1(self):
        a = BoundParams(k=1, d=1, sigma=0.0, delta=4.0 / math.e)
        b = BoundParams(k=1, d=1, sigma=1.0, delta=4.0 / math.e)
        assert zeta_bound(4096, a) == zeta_bound(4096, b)

    def test_bad_n(self):
        p = BoundParams(k=1, d=2, sigma=0.1, delta=0.1)
        with pytest.raises(ValueError):
            zeta_bound(0, p)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundParams(k=1, d=2, sigma=0.1, delta=0.0)


class TestAlphaBound:
    def test_zero_zeta(self):
        p = BoundParams(k=1, d=1, sigma=1.0, delta=0.5)
        assert alpha_bound(0.0, p) == 0.0

    def test_spot_value(self):
        p = BoundParams(k=1, d=1, sigma=1.0, delta=0.5)
        a = alpha_bound(0.5, p)
        assert a == pytest.approx(727.0 * math.pi ** -0.25, abs=1e-9)
        assert a == pytest.approx(mp_alpha(0.5, 1, 1), abs=1e-9)

    def test_linear_in_k(self):
        p1 = BoundParams(k=1, d=2, sigma=0.1, delta=0.5)
        p2 = BoundParams(k=2, d=2, sigma=0.1, delta=0.5)
        assert alpha_bound(1.0, p2) == pytest.approx(2.0 * alpha_bound(1.0, p1), rel=1e-12)

    def test_negative_zeta_rejected(self):
        p = BoundParams(k=1, d=2, sigma=0.1, delta=0.5)
        with pytest.raises(ValueError):
            alpha_bound(-1.0, p)


class TestHBound:
    def test_valid_grid_against_oracle(self):
        # |S^(d-2)| is subnormal or 0.0 in floats from d of about 430
        cases = [(0.0, eps, 3) for eps in (0.001, 0.002, 0.003)]
        cases += [(0.0, 1e-6, d) for d in (300, 500, 700, 2000)] + [(1e-290, 1e-6, 400)]
        for eta, eps, d in cases:
            got = h_bound(eta, eps, 1, d)
            want = mp_h(eta, eps, 1, d)
            assert want is not None
            assert got == pytest.approx(want, rel=1e-10)

    def test_frozen_values(self):
        assert h_bound(0.0, 0.001, 1, 3) == pytest.approx(0.0014874319811718861, rel=1e-12)
        assert h_bound(0.0, 0.002, 1, 3) == pytest.approx(0.003576545714528951, rel=1e-12)
        assert h_bound(0.0, 0.003, 1, 3) == pytest.approx(0.006725016587903917, rel=1e-12)

    def test_d2_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            h_bound(0.0, 0.01, 1, 2)

    def test_sphere_area_against_oracle(self):
        # every n up to 1000 whose area is a normal float (n up to about 430)
        checked = 0
        for n in range(1, 1001):
            want = mp_sphere_area(n - 1)
            if want >= sys.float_info.min:
                assert math.exp(estimation._log_sphere_area(n - 1)) == pytest.approx(want, rel=1e-12, abs=0.0)
                checked += 1
        assert checked > 400

    def test_increasing_in_eta(self):
        lo = h_bound(0.0, 0.001, 1, 3)
        hi = h_bound(1e-10, 0.001, 1, 3)
        assert hi > lo

    def test_vacuous_denominator(self):
        # eta large enough to flip the denominator sign
        with pytest.raises(BoundVacuousError):
            h_bound(1.0, 0.001, 1, 3)

    def test_vacuous_agrees_with_oracle(self):
        # at these points the high-precision denominator is already negative; at
        # k = 3, d = 400 and 100000 it is so because 48 k d eps > 1 - d eps^2 / 2,
        # whether the sphere areas overflow their factors (d = 400) or underflow
        cases = [(0.0, 0.01, 1, 3), (1e-250, 1e-6, 1, 400), (1e-320, 1e-6, 1, 500)]
        cases += [(0.0, eps, 3, d) for d in (400, 100000) for eps in (0.001, 0.002, 0.003)]
        for eta, eps, k, d in cases:
            assert mp_h(eta, eps, k, d) is None
            with pytest.raises(BoundVacuousError):
                h_bound(eta, eps, k, d)


class TestT0Schedule:
    def test_spot_value(self):
        p = BoundParams(k=1, d=1, sigma=1.0, delta=0.5)
        t = t0_schedule(1.0, p, math.e)
        assert t == pytest.approx(math.log(64.0 * math.e), abs=1e-12)
        assert t == pytest.approx(mp_t0(1.0, 1, 1, 1.0, math.e), abs=1e-12)

    def test_monotone_in_nu(self):
        p = BoundParams(k=2, d=3, sigma=0.5, delta=0.1)
        assert t0_schedule(0.1, p, 1000.0) >= t0_schedule(0.2, p, 1000.0)

    def test_constant_once_t2_dominates(self):
        p = BoundParams(k=1, d=4, sigma=0.1, delta=0.1)
        # d^6 >> d^2/nu^8 for nu near 1, so t2 wins and nu stops mattering
        assert t0_schedule(1.0, p, 1000.0) == t0_schedule(2.0, p, 1000.0)

    def test_bad_nu(self):
        p = BoundParams(k=1, d=2, sigma=0.1, delta=0.1)
        with pytest.raises(ValueError):
            t0_schedule(0.0, p, 10.0)

    def test_small_T_rejected(self):
        p = BoundParams(k=1, d=2, sigma=0.1, delta=0.1)
        with pytest.raises(ValueError):
            t0_schedule(1.0, p, 2.0)
