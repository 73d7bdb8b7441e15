import math

import numpy as np
import pytest

from relu_bandits import (
    GenerationError,
    Instance,
    ProtocolError,
    RandomConfig,
    ReluNetwork,
    TrialTrace,
    aggregate,
    eval_f_batch,
    gen_instance,
    run_trial,
    sample_arms,
)
from relu_bandits.agents import RandomAgent
from relu_bandits.harness import _check_instance

from oracles import gen_instance_reference, sample_arms_reference


def make_trace(finals, tag="x"):
    """One-round traces whose cumulative regrets are the given finals."""
    out = []
    for i, r in enumerate(finals):
        out.append(
            TrialTrace(
                algorithm=tag,
                seed=i,
                t=np.array([1]),
                chosen=np.array([0]),
                rewards=np.array([0.0]),
                inst_regret=np.array([float(r)]),
                cum_regret=np.array([float(r)]),
            )
        )
    return out


class TestGenInstance:
    def test_k1_unconstrained(self):
        inst = gen_instance(1, 3, 1.9, 0.1, np.random.default_rng(0))
        assert inst.truth.k == 1
        assert np.linalg.norm(inst.truth.weights[0]) == pytest.approx(1.0, abs=1e-9)

    def test_separation_enforced(self):
        inst = gen_instance(3, 2, 0.2, 0.1, np.random.default_rng(1))
        w = inst.truth.weights
        assert np.allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-9)
        for i in range(3):
            for j in range(i + 1, 3):
                sep = min(np.linalg.norm(w[i] - w[j]), np.linalg.norm(w[i] + w[j]))
                assert sep >= 0.2

    def test_impossible_separation(self):
        # 0.999 is below the planar bound 2 sin(pi/6) = 1, but almost no
        # uniform draw of three rows reaches it, so every attempt is rejected
        with pytest.raises(GenerationError):
            gen_instance(3, 2, 0.999, 0.1, np.random.default_rng(2))

    @pytest.mark.parametrize(
        "k,d,alpha0,sigma,name",
        [(0, 2, 0.0, 0.1, "k"), (2, 2, 0.0, -0.1, "sigma"), (2, 2, 0.0, np.nan, "sigma"),
         (2, 2, -0.1, 0.1, "alpha0"), (2, 2, 2.1, 0.1, "alpha0"), (3, 2, 1.2, 0.1, "alpha0"),
         (3, 2, 1.0, 0.1, "alpha0")],
    )
    def test_bad_input_rejected_before_drawing(self, k, d, alpha0, sigma, name):
        # alpha0 above sqrt(2) is infeasible for k >= 2, and above 2 sin(pi/(2k))
        # for k >= 3 in the plane (at k = 3 the float bound is 0.9999999999999999,
        # so 1.0 is out), and fails at once
        gen = np.random.default_rng(2)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match=rf"^{name}\b"):  # the message starts with the parameter
            gen_instance(k, d, alpha0, sigma, gen)
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize(
        "k,alpha0,sigma,name",
        [(3, 0.0, math.inf, "sigma"), (1, 0.0, math.inf, "sigma"), (1, math.inf, 0.1, "alpha0"),
         (2, math.inf, 0.1, "alpha0")],
        ids=["sigma-k3", "sigma-k1", "alpha0-k1", "alpha0-k2"],
    )
    def test_infinite_input_rejected_before_drawing(self, k, alpha0, sigma, name):
        # an infinite sigma makes every reward +-inf; at k = 1 no separation
        # bound caps alpha0, and at k >= 2 inf is named like any other out-of-range value
        gen = np.random.default_rng(2)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match=rf"^{name} must be a number in \[0, inf\), got inf$"):
            gen_instance(k, 2, alpha0, sigma, gen)
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize("rows", [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]], ids=["k1", "k3"])
    def test_instance_rejects_infinite_sigma(self, rows):
        with pytest.raises(ValueError, match=r"^sigma must be a number in \[0, inf\), got inf$"):
            Instance(truth=ReluNetwork(np.array(rows)), sigma=math.inf)

    @pytest.mark.parametrize(
        "k,d,name", [(True, 2, "k"), (2.0, 2, "k"), (2, True, "d"), (2, 3.0, "d")],
        ids=["k-bool", "k-float", "d-bool", "d-float"],
    )
    def test_integer_inputs_named(self, k, d, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            gen_instance(k, d, 0.0, 0.1, np.random.default_rng(2))

    def test_planar_bound_keeps_sqrt2_at_k2(self):
        # 2 sin(pi/4) rounds 1 ulp below sqrt(2), so two rows keep sqrt(2) in the plane too
        _check_instance(2, 2, math.sqrt(2.0), 0.1)
        _check_instance(3, 3, math.sqrt(2.0), 0.1)

    @pytest.mark.parametrize(
        "k,d,alpha0",
        [(1, 3, 1.9), (3, 2, 0.0), (3, 2, 0.9), (10, 2, 0.1), (4, 5, 1.2), (10, 12, 1.0)],
    )
    def test_matches_reference_loop(self, k, d, alpha0):
        # k=3, d=2, alpha0=0.9 (fig2a) and k=10, d=2, alpha0=0.1 (fig2b) reject
        # most attempts, so every draw of a long rejection run must match
        for seed in range(5):
            gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            inst = gen_instance(k, d, alpha0, 0.1, gen)
            want = gen_instance_reference(k, d, alpha0, ref)
            assert inst.truth.weights.tobytes() == want.tobytes()
            assert gen.bit_generator.state == ref.bit_generator.state

    def test_deterministic(self):
        a = gen_instance(3, 2, 0.2, 0.1, np.random.default_rng(5))
        b = gen_instance(3, 2, 0.2, 0.1, np.random.default_rng(5))
        np.testing.assert_array_equal(a.truth.weights, b.truth.weights)

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            gen_instance(1, 1, 0.0, 0.1, np.random.default_rng(4))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            Instance(truth=ReluNetwork(np.array([[1.0, 0.0]])), sigma=-0.1)


class TestSampleArms:
    def test_unit_norms(self):
        arms = sample_arms(1000, 2, np.random.default_rng(5))
        assert arms.shape == (1000, 2)
        assert np.allclose(np.linalg.norm(arms, axis=1), 1.0, atol=1e-9)

    def test_deterministic(self):
        a = sample_arms(10, 3, np.random.default_rng(6))
        b = sample_arms(10, 3, np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            sample_arms(0, 2, np.random.default_rng(8))

    @pytest.mark.parametrize("m", [3.0, True])
    def test_integer_m_named(self, m):
        with pytest.raises(ValueError, match="^m must be an integer"):
            sample_arms(m, 2, np.random.default_rng(8))

    @pytest.mark.parametrize("d", [2.0, True])
    def test_integer_d_named(self, d):
        with pytest.raises(ValueError, match="^d must be an integer"):
            sample_arms(3, d, np.random.default_rng(8))

    @pytest.mark.parametrize("d", [0, 1])
    def test_bad_d(self, d):
        # the instance rule's d >= 2
        with pytest.raises(ValueError, match=r"^d must be an integer in \[2, inf\)"):
            sample_arms(3, d, np.random.default_rng(8))

    @pytest.mark.parametrize("d", [2, 3, 7, 8, 9])
    def test_matches_reference_bits_and_stream(self, d):
        for m in (1, 5, 1000):
            gen, ref_gen = np.random.default_rng(100 + d), np.random.default_rng(100 + d)
            for _ in range(3):
                got, want = sample_arms(m, d, gen), sample_arms_reference(m, d, ref_gen)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert gen.bit_generator.state == ref_gen.bit_generator.state


class TestRunTrial:
    def _coin_flip_setup(self):
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        inst = Instance(truth=truth, sigma=0.0)
        arms = np.array([[1.0, 0.0], [-1.0, 0.0]])
        return inst, arms

    def test_random_agent_mean_regret_half(self, patch_trial):
        # f values are 1 and 0, so a uniform pick loses 0.5 on average
        inst, arms = self._coin_flip_setup()
        patch_trial(arms=arms)
        tr = run_trial(inst, RandomConfig(), 10_000, 2, np.random.default_rng(9))
        assert abs(tr.inst_regret.mean() - 0.5) < 0.02

    def test_trace_shape_and_cumsum(self, patch_trial):
        inst, arms = self._coin_flip_setup()
        patch_trial(arms=arms)
        tr = run_trial(inst, RandomConfig(), 100, 2, np.random.default_rng(10))
        assert len(tr) == 100
        np.testing.assert_array_equal(tr.t, np.arange(1, 101))
        np.testing.assert_allclose(tr.cum_regret, np.cumsum(tr.inst_regret), atol=1e-12)
        assert np.all(np.diff(tr.cum_regret) >= -1e-12)

    def test_regret_nonnegative(self):
        truth = ReluNetwork(np.array([[0.6, 0.8], [0.0, 1.0]]))
        inst = Instance(truth=truth, sigma=0.3)
        tr = run_trial(inst, RandomConfig(), 200, 15, np.random.default_rng(11))
        assert np.all(tr.inst_regret >= 0.0)

    def test_deterministic_under_seed(self):
        truth = ReluNetwork(np.array([[0.6, 0.8]]))
        inst = Instance(truth=truth, sigma=0.1)
        a = run_trial(inst, RandomConfig(), 50, 8, np.random.default_rng(12))
        b = run_trial(inst, RandomConfig(), 50, 8, np.random.default_rng(12))
        np.testing.assert_array_equal(a.chosen, b.chosen)
        np.testing.assert_array_equal(a.rewards, b.rewards)
        np.testing.assert_array_equal(a.cum_regret, b.cum_regret)

    def test_comparator_is_global_best_on_fixed_arms(self, patch_trial):
        truth = ReluNetwork(np.array([[0.6, 0.8], [-0.8, 0.6]]))
        inst = Instance(truth=truth, sigma=0.0)
        arms = sample_arms(20, 2, np.random.default_rng(13))
        patch_trial(arms=arms)
        tr = run_trial(inst, RandomConfig(), 60, 20, np.random.default_rng(14))
        best = eval_f_batch(truth, arms).max()
        fvals = eval_f_batch(truth, arms)[tr.chosen]
        np.testing.assert_allclose(fvals + tr.inst_regret, best, atol=1e-12)

    def test_random_baseline_linear_growth(self):
        # least-squares slope over the last half of a noiseless run
        inst = gen_instance(2, 2, 0.1, 0.0, np.random.default_rng(15))
        tr = run_trial(inst, RandomConfig(), 400, 25, np.random.default_rng(16))
        t = tr.t[200:].astype(float)
        slope = np.polyfit(t, tr.cum_regret[200:], 1)[0]
        assert slope > 0.1 * 2

    def test_trial_seed_tagged(self, patch_trial):
        inst, arms = self._coin_flip_setup()
        patch_trial(arms=arms)
        tr = run_trial(inst, RandomConfig(), 5, 2, np.random.default_rng(17), trial_seed=9)
        assert tr.seed == 9
        assert tr.algorithm == "random"

    def test_bad_T(self):
        inst, _ = self._coin_flip_setup()
        with pytest.raises(ValueError):
            run_trial(inst, RandomConfig(), 0, 2, np.random.default_rng(18))

    @pytest.mark.parametrize(
        "T,m,name", [(5.5, 4, "T"), (True, 4, "T"), (5, 4.0, "m"), (5, True, "m")],
        ids=["T-float", "T-bool", "m-float", "m-bool"],
    )
    def test_integer_inputs_named(self, T, m, name):
        inst, _ = self._coin_flip_setup()
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run_trial(inst, RandomConfig(), T, m, np.random.default_rng(18))

    def test_no_override_keywords(self):
        # a fixed arm set or a prebuilt agent is a test's patch (the patch_trial fixture), not an input
        inst, arms = self._coin_flip_setup()
        with pytest.raises(TypeError):
            run_trial(inst, RandomConfig(), 5, 2, np.random.default_rng(21), fixed_arms=arms)
        with pytest.raises(TypeError):
            run_trial(inst, RandomConfig(), 5, 2, np.random.default_rng(21), agent=RandomAgent())

    def test_agent_protocol_violation_propagates(self, patch_trial):
        inst, arms = self._coin_flip_setup()
        broken = RandomAgent()
        broken.select_arm(arms, np.random.default_rng(19))  # leaves a pick pending
        patch_trial(arms=arms, agent=broken)
        with pytest.raises(ProtocolError):
            run_trial(inst, None, 5, 2, np.random.default_rng(20))


class TestTrialTrace:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TrialTrace(
                algorithm="x",
                seed=0,
                t=np.array([1, 2]),
                chosen=np.array([0]),
                rewards=np.array([0.0]),
                inst_regret=np.array([0.0]),
                cum_regret=np.array([0.0]),
            )


class TestAggregate:
    def test_identical_traces_zero_ci(self):
        agg = aggregate(make_trace([7.0, 7.0, 7.0]))
        assert agg.n_trials == 3
        assert agg.mean_cum_regret[-1] == pytest.approx(7.0)
        assert agg.ci_half[-1] == pytest.approx(0.0, abs=1e-15)

    def test_two_point_ci(self):
        agg = aggregate(make_trace([10.0, 14.0]))
        assert agg.mean_cum_regret[-1] == pytest.approx(12.0)
        assert agg.ci_half[-1] == pytest.approx(2.7718585822512662, rel=1e-12)

    def test_per_round_mean(self):
        a, b = make_trace([0.0]), make_trace([0.0])
        t1 = TrialTrace(
            algorithm="x",
            seed=0,
            t=np.array([1, 2]),
            chosen=np.array([0, 0]),
            rewards=np.array([0.0, 0.0]),
            inst_regret=np.array([1.0, 1.0]),
            cum_regret=np.array([1.0, 2.0]),
        )
        t2 = TrialTrace(
            algorithm="x",
            seed=1,
            t=np.array([1, 2]),
            chosen=np.array([0, 0]),
            rewards=np.array([0.0, 0.0]),
            inst_regret=np.array([3.0, 1.0]),
            cum_regret=np.array([3.0, 4.0]),
        )
        agg = aggregate([t1, t2])
        np.testing.assert_allclose(agg.mean_cum_regret, [2.0, 3.0])
        np.testing.assert_array_equal(agg.t, [1, 2])

    def test_single_trace_rejected(self):
        with pytest.raises(ValueError):
            aggregate(make_trace([1.0]))

    def test_mixed_tags_rejected(self):
        traces = make_trace([1.0], tag="a") + make_trace([2.0], tag="b")
        with pytest.raises(ValueError):
            aggregate(traces)

    def test_mixed_lengths_rejected(self):
        long = TrialTrace(
            algorithm="x",
            seed=5,
            t=np.array([1, 2]),
            chosen=np.array([0, 0]),
            rewards=np.array([0.0, 0.0]),
            inst_regret=np.array([0.0, 0.0]),
            cum_regret=np.array([0.0, 0.0]),
        )
        with pytest.raises(ValueError):
            aggregate(make_trace([1.0]) + [long])
