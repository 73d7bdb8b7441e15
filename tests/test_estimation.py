import functools
import inspect
import math
import sys

import numpy as np
import pytest

from relu_bandits import (
    FitConfig,
    ReluNetwork,
    alpha_bound,
    eval_f_batch,
    fit_erm,
    match_neurons,
    t0_schedule,
    zeta_bound,
)
from relu_bandits import estimation
from relu_bandits.estimation import h_bound

from oracles import (
    empirical_sq_loss, exhaustive_match, fit_erm_reference, mp_alpha, mp_h, mp_sphere_area, mp_t0, mp_zeta,
)

NON_FINITE = {ValueError: "labels must be finite", RuntimeError: "all restarts produced non-finite losses"}
VACUOUS = r"^h_bound\(eta=.*\) is vacuous: the denominator is nonpositive$"


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

    @pytest.mark.parametrize("k", [2.5, math.inf, math.nan, True])
    def test_integer_k_named(self, k):
        # unchecked, numpy fails on the first draw, naming no argument
        with pytest.raises(ValueError, match=r"^k must be an integer in \[1, inf\)"):
            fit_erm([[1.0, 0.0]], [0.0], k, FitConfig(restarts=1, max_iters=1))

    def test_label_count_must_match(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        for y in ([0.0, 0.0, 1.0], [0.0]):
            with pytest.raises(ValueError, match=rf"^y has shape \({len(y)},\), expected \(2,\)$"):
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

    def test_negative_seed_named(self):
        # unchecked, numpy's generator rejects it only at the first fit, naming no field
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, inf\), got -1$"):
            FitConfig(seed=-1)
        assert FitConfig(seed=0).seed == 0

    @pytest.mark.parametrize("field", ["step_size", "tol"])
    def test_nan_rejected(self, field):
        # neither has a finite top: a huge tol freezes every restart, and tests use tol up to 1e3
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^{field} must be a number in \(0, inf"):
                FitConfig(**{field: value})


# each evaluator called with the parameters it reads, from one valid set
BOUND_CALLS = {
    "zeta": lambda p: zeta_bound(100, p["k"], p["d"], p["sigma"], p["delta"]),
    "alpha": lambda p: alpha_bound(0.5, p["k"], p["d"]),
    "t0": lambda p: t0_schedule(0.5, p["k"], p["d"], p["sigma"], 1000.0, C1=p["C1"], C2=p["C2"]),
}
BOUND_READS = {"k": "zeta alpha t0", "d": "zeta alpha t0", "sigma": "zeta t0", "delta": "zeta", "C1": "t0", "C2": "t0"}


class TestBoundParamsValidation:
    """Every evaluator that reads a parameter checks it, with one message per parameter."""

    @staticmethod
    def calls_reading(field, value):
        p = dict({"k": 1, "d": 2, "sigma": 0.1, "delta": 0.1, "C1": 1.0, "C2": 1.0}, **{field: value})
        return [functools.partial(BOUND_CALLS[name], p) for name in BOUND_READS[field].split()]

    @pytest.mark.parametrize("field,value", [("k", 2.5), ("k", True), ("d", 2.0), ("d", True)])
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        for call in self.calls_reading(field, value):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                call()

    @pytest.mark.parametrize(
        "field", ["sigma", "delta", "C1", "C2"],
        ids=["sigma-sigma", "delta-delta", "C1-C1 and C2", "C2-C1 and C2"],  # the names predate the one message form
    )
    def test_nan_rejected(self, field):
        # unchecked, an infinite delta raises "math domain error" and the other infinities return inf
        for value in (math.nan, math.inf):
            for call in self.calls_reading(field, value):
                with pytest.raises(ValueError, match=f"^{field} must be a number in .*, got {value}$"):
                    call()

    @pytest.mark.parametrize(
        "field,value",
        [("k", 0), ("d", 0), ("sigma", -0.1), ("C1", 0.0), ("C2", -1.0)],
        ids=["k-0-k and d", "d-0-k and d", "sigma--0.1-sigma", "C1-0.0-C1 and C2", "C2--1.0-C1 and C2"],  # as above
    )
    def test_out_of_range_rejected(self, field, value):
        for call in self.calls_reading(field, value):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                call()

    def test_each_evaluator_takes_only_what_it_reads(self):
        params = {f: list(inspect.signature(f).parameters) for f in (zeta_bound, alpha_bound, t0_schedule)}
        assert params == {
            zeta_bound: ["n", "k", "d", "sigma", "delta"],
            alpha_bound: ["zeta", "k", "d"],
            t0_schedule: ["nu", "k", "d", "sigma", "T", "C1", "C2"],
        }
        with pytest.raises(TypeError):  # the constants are keyword-only and have no default
            t0_schedule(0.5, 1, 2, 0.1, 1000.0)
        assert not hasattr(estimation, "BoundParams")


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
        with pytest.raises(ValueError, match="^labels must be finite$"):
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
    def both(X, y, k, restarts, max_iters, step_size, tol, seed, init=None):
        cfg = FitConfig(restarts=restarts, max_iters=max_iters, step_size=step_size, tol=tol, seed=seed)
        try:
            got = fit_erm(X, y, k, cfg, init=None if init is None else ReluNetwork(init)).weights
        except (ValueError, RuntimeError) as exc:
            assert str(exc) == NON_FINITE[type(exc)]
            got = None
        try:
            want = fit_erm_reference(X, y, k, restarts, max_iters, step_size, tol, seed, init=init)
        except RuntimeError as exc:
            assert str(exc) == NON_FINITE[RuntimeError]
            want = None
        return got, want

    def test_randomized_bit_identical(self):
        # each case runs a cold fit, then a warm fit from the cold estimate (as a
        # refit does) or from random rows; a second generator draws the warm
        # side, so the cases themselves do not depend on it
        rng, init_rng = np.random.default_rng(20240513), np.random.default_rng(7)
        failures = warm = 0
        for _ in range(150):
            k, d, n = int(rng.integers(1, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 300))
            truth = ReluNetwork(unit_rows(rng, k, d))
            X = unit_rows(rng, n, d)
            y = np.maximum(X @ truth.weights.T, 0.0).sum(axis=1) + rng.uniform(0.0, 0.5) * rng.standard_normal(n)
            if rng.random() < 0.1:
                y[int(rng.integers(n))] = rng.choice([np.inf, -np.inf, np.nan])
            tol = float(10.0 ** rng.uniform(-9.0, 0.5))  # the upper end freezes restarts early
            args = (
                X, y, k, int(rng.integers(1, 12)), int(rng.integers(1, 150)),
                float(rng.uniform(0.05, 1.0)), tol, int(rng.integers(0, 2**31)),
            )
            got, want = self.both(*args)
            failures += want is None
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
            init = want if want is not None and init_rng.random() < 0.5 else unit_rows(init_rng, k, d)
            got, want = self.both(*args, init=init)
            assert (got is None) == (want is None)
            if want is not None:
                warm += 1
                assert np.array_equal(got, want)
        assert failures > 0  # the non-finite-label cases were exercised
        assert warm > 100  # and most warm fits returned an estimate

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


class TestFitErmWarmStart:
    """Given ``init``, the fit is one restart from its rows."""

    @staticmethod
    def data():
        return TestProjectedStepStop.noisy_data()

    def test_equals_the_one_restart_oracle_and_ignores_restarts(self):
        X, y = self.data()
        init = ReluNetwork(unit_rows(np.random.default_rng(4), 3, 2))
        warm = fit_erm(X, y, 3, FitConfig(), init=init).weights
        assert np.array_equal(warm, fit_erm_reference(X, y, 3, 10, 600, 0.2, 1e-9, 0, init=init.weights))
        assert np.array_equal(warm, fit_erm(X, y, 3, FitConfig(restarts=1), init=init).weights)
        assert not np.array_equal(warm, fit_erm(X, y, 3, FitConfig()).weights)

    def test_starting_at_a_frozen_fit_returns_it(self):
        # on this data the cold fit freezes every restart (TestProjectedStepStop),
        # so its winner's next projected step is below tol and the warm fit keeps it
        X, y = self.data()
        cold = fit_erm(X, y, 3, FitConfig())
        assert np.array_equal(fit_erm(X, y, 3, FitConfig(), init=cold).weights, cold.weights)

    def test_collapsed_row_redrawn_from_the_seeded_generator(self):
        # the only sample is e1 with label 0 and the init row is e1: the
        # residual is 1, the gradient 2 * e1, and a step of 0.5 lands on the
        # origin, so the row is redrawn from the first draw of default_rng(seed)
        init = ReluNetwork(np.array([[1.0, 0.0]]))
        cfg = FitConfig(restarts=3, max_iters=1, step_size=0.5, seed=11)
        est = fit_erm([[1.0, 0.0]], [0.0], 1, cfg, init=init).weights
        np.testing.assert_allclose(est, estimation._unit_rows(np.random.default_rng(11), 1, 2), rtol=0, atol=1e-15)
        longer = fit_erm([[1.0, 0.0]], [0.0], 1, FitConfig(max_iters=50, step_size=0.5, seed=11), init=init)
        assert np.array_equal(longer.weights, fit_erm_reference(
            np.array([[1.0, 0.0]]), np.array([0.0]), 1, 10, 50, 0.5, 1e-9, 11, init=init.weights))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 3)])
    def test_init_shape_must_match_k_and_the_data(self, shape):
        # unchecked, a wrong k would descend without complaint and a wrong d
        # would fail inside the first step's matmul, naming nothing
        X, y = self.data()
        init = ReluNetwork(unit_rows(np.random.default_rng(5), *shape))
        with pytest.raises(ValueError, match=rf"^init has shape \({shape[0]}, {shape[1]}\), expected \(3, 2\)"):
            fit_erm(X, y, 3, FitConfig(), init=init)


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
        z = zeta_bound(4096, 1, 1, 1.0, 4.0 / math.e)
        assert z == pytest.approx(math.sqrt(math.log(65.0) + 1.0), abs=1e-12)
        assert z == pytest.approx(mp_zeta(4096, 1, 1, 1.0, 4.0 / math.e), abs=1e-12)

    def test_monotone_in_n(self):
        for n in (16, 64, 256, 1024):
            assert zeta_bound(2 * n, 2, 3, 0.5, 0.1) < zeta_bound(n, 2, 3, 0.5, 0.1)

    def test_sigma_zero_equals_sigma_one_at_k1(self):
        assert zeta_bound(4096, 1, 1, 0.0, 4.0 / math.e) == zeta_bound(4096, 1, 1, 1.0, 4.0 / math.e)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            zeta_bound(0, 1, 2, 0.1, 0.1)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_n_must_be_finite(self, n):
        with pytest.raises(ValueError, match=r"^n must be a number in \[1, inf\)"):
            zeta_bound(n, 1, 2, 0.1, 0.1)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            zeta_bound(100, 1, 2, 0.1, 0.0)


class TestAlphaBound:
    def test_zero_zeta(self):
        assert alpha_bound(0.0, 1, 1) == 0.0

    def test_spot_value(self):
        a = alpha_bound(0.5, 1, 1)
        assert a == pytest.approx(727.0 * math.pi ** -0.25, abs=1e-9)
        assert a == pytest.approx(mp_alpha(0.5, 1, 1), abs=1e-9)

    def test_linear_in_k(self):
        assert alpha_bound(1.0, 2, 2) == pytest.approx(2.0 * alpha_bound(1.0, 1, 2), rel=1e-12)

    @pytest.mark.parametrize("zeta", [math.nan, math.inf])
    def test_zeta_must_be_finite(self, zeta):
        with pytest.raises(ValueError, match=r"^zeta must be a number in \[0, inf\)"):
            alpha_bound(zeta, 1, 2)

    def test_negative_zeta_rejected(self):
        with pytest.raises(ValueError):
            alpha_bound(-1.0, 1, 2)


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

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_eta_must_be_finite(self, eta):
        # a NaN eta used to fall through to the eta = 0 value, 0.0014874...
        with pytest.raises(ValueError, match=r"^eta must be a number in \[0, inf\)"):
            h_bound(eta, 0.001, 1, 3)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_eps_must_be_finite(self, eps):
        with pytest.raises(ValueError, match=r"^eps must be a number in \(0, inf\)"):
            h_bound(0.0, eps, 1, 3)

    @pytest.mark.parametrize("k,d,name", [(1.5, 3, "k"), (True, 3, "k"), (1, 3.0, "d"), (1, True, "d")])
    def test_integer_k_and_d_named(self, k, d, name):
        # the rule of the other evaluators: k = 1.5 used to give a value, True the k = 1 one
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            h_bound(0.0, 0.001, k, d)

    def test_d2_unsupported(self):
        with pytest.raises(ValueError, match=r"^d must be an integer in \[3, inf\), got 2$"):
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
        with pytest.raises(ValueError, match=VACUOUS):
            h_bound(1.0, 0.001, 1, 3)

    def test_vacuous_agrees_with_oracle(self):
        # at these points the high-precision denominator is already negative; at
        # k = 3, d = 400 and 100000 it is so because 48 k d eps > 1 - d eps^2 / 2,
        # whether the sphere areas overflow their factors (d = 400) or underflow
        cases = [(0.0, 0.01, 1, 3), (1e-250, 1e-6, 1, 400), (1e-320, 1e-6, 1, 500)]
        cases += [(0.0, eps, 3, d) for d in (400, 100000) for eps in (0.001, 0.002, 0.003)]
        for eta, eps, k, d in cases:
            assert mp_h(eta, eps, k, d) is None
            with pytest.raises(ValueError, match=VACUOUS):
                h_bound(eta, eps, k, d)


class TestT0Schedule:
    def test_spot_value(self):
        t = t0_schedule(1.0, 1, 1, 1.0, math.e, C1=1.0, C2=1.0)
        assert t == pytest.approx(math.log(64.0 * math.e), abs=1e-12)
        assert t == pytest.approx(mp_t0(1.0, 1, 1, 1.0, math.e), abs=1e-12)

    def test_monotone_in_nu(self):
        assert t0_schedule(0.1, 2, 3, 0.5, 1000.0, C1=1.0, C2=1.0) >= t0_schedule(0.2, 2, 3, 0.5, 1000.0, C1=1.0, C2=1.0)

    def test_constant_once_t2_dominates(self):
        # d^6 >> d^2/nu^8 for nu near 1, so t2 wins and nu stops mattering
        assert t0_schedule(1.0, 1, 4, 0.1, 1000.0, C1=1.0, C2=1.0) == t0_schedule(2.0, 1, 4, 0.1, 1000.0, C1=1.0, C2=1.0)

    def test_bad_nu(self):
        with pytest.raises(ValueError):
            t0_schedule(0.0, 1, 2, 0.1, 10.0, C1=1.0, C2=1.0)

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_nu_must_be_finite(self, nu):
        with pytest.raises(ValueError, match=r"^nu must be a number in \(0, inf\)"):
            t0_schedule(nu, 1, 2, 0.1, 1000.0, C1=1.0, C2=1.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_T_must_be_finite(self, T):
        with pytest.raises(ValueError, match=r"^T must be a number in \[2.71828, inf\)"):
            t0_schedule(0.5, 1, 2, 0.1, T, C1=1.0, C2=1.0)

    def test_small_T_rejected(self):
        with pytest.raises(ValueError):
            t0_schedule(1.0, 1, 2, 0.1, 2.0, C1=1.0, C2=1.0)
