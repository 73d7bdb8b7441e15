import math

import numpy as np
import pytest

from relu_bandits import agents
from relu_bandits import (
    FitConfig,
    Instance,
    OfuReluConfig,
    OfuReluPlusConfig,
    OfulConfig,
    RandomConfig,
    ReluNetwork,
    UcbConfig,
    eval_f_batch,
    run_trial,
    sample_arms,
)
from relu_bandits.agents import OfuReluAgent, OfulAgent, RandomAgent, build_batch_grid, make_agent
from relu_bandits.linear_ucb import LinearUcbState, conf_radius, ridge_update
from relu_bandits.relu_model import margin_mask, sign_robust_features_batch

from oracles import batch_phases_reference, margin_ucb_select_reference

UCB = UcbConfig(sigma=0.1, S=math.sqrt(5.0), delta=0.1, lam=1.0)
FIT = FitConfig(restarts=3, max_iters=200, seed=0)


def plus_config(override, nu0=1.0, T1=10, a=2.0, b=2.0, ucb=UCB):
    return OfuReluPlusConfig(nu0=nu0, T1=T1, a=a, b=b, ucb=ucb, fit=FIT, practical_override=override)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RandomConfig("random"),
            lambda: OfulConfig(UCB),
            lambda: OfuReluConfig(20, UCB, FIT),
            lambda: OfuReluPlusConfig(1.0, 10, 2.0, 2.0, UCB, FIT),
        ],
        ids=["random", "oful", "ofu_relu", "ofu_relu_plus"],
    )
    def test_agent_configs_are_keyword_only(self, build):
        with pytest.raises(TypeError, match="positional argument"):
            build()

    def test_t0_floor(self):
        with pytest.raises(ValueError):
            OfuReluConfig(t0=0, ucb=UCB, fit=FIT)

    def test_negative_nu(self):
        with pytest.raises(ValueError):
            OfuReluConfig(t0=5, ucb=UCB, fit=FIT, nu=-0.1)

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: OfuReluConfig(t0=5.5, ucb=UCB, fit=FIT), "t0"),
            (lambda: OfuReluConfig(t0=True, ucb=UCB, fit=FIT), "t0"),
            (lambda: plus_config(None, T1=2.5), "T1"),
            (lambda: plus_config(None, T1=True), "T1"),
        ],
        ids=["t0-float", "t0-bool", "T1-float", "T1-bool"],
    )
    def test_integer_fields_reject_floats_and_bools(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            build()

    def test_plus_multipliers(self):
        with pytest.raises(ValueError):
            plus_config(None, a=1.0)
        with pytest.raises(ValueError):
            plus_config(None, b=1.0)
        with pytest.raises(ValueError):
            plus_config(None, nu0=0.0)
        for override in ((2.5,), (True,), (-1,)):  # no silent truncation: (2.9, True) is not (2, 1)
            with pytest.raises(ValueError):
                plus_config(override)

    def test_nu_nan_rejected(self):
        for nu in (math.nan, math.inf):  # an infinite gap would filter every arm out every round
            with pytest.raises(ValueError, match=r"^nu must be a number in \[0, inf\)"):
                OfuReluConfig(t0=5, ucb=UCB, fit=FIT, nu=nu)

    @pytest.mark.parametrize(
        "field,low",
        [("nu0", "0"), ("a", "1"), ("b", "1")],
        ids=["nu0-nu0 must be", "a-batch multipliers", "b-batch multipliers"],  # the names predate the one message form
    )
    def test_plus_nan_rejected(self, field, low):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^{field} must be a number in \({low}, inf\)"):
                plus_config(None, **{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["C1", "C2"])
    def test_plus_schedule_constants_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a number in \(0, inf\)"):
            OfuReluPlusConfig(nu0=1.0, T1=10, a=2.0, b=2.0, ucb=UCB, fit=FIT, **{field: value})


class TestProtocol:
    def test_double_select(self):
        agent = RandomAgent()
        arms = sample_arms(3, 2, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        agent.select_arm(arms, rng)
        with pytest.raises(RuntimeError, match=r"^observe\(\) must be called before the next select_arm\(\)$"):
            agent.select_arm(arms, rng)

    def test_observe_without_select(self):
        with pytest.raises(RuntimeError, match=r"^select_arm\(\) must be called before observe\(\)$"):
            RandomAgent().observe(0.0)

    def test_alternation_ok(self):
        agent = RandomAgent()
        arms = sample_arms(3, 2, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(5):
            agent.select_arm(arms, rng)
            agent.observe(0.0)

    def test_out_of_range_pick_rejected(self):
        class Overshoot(RandomAgent):
            def _select(self, arms, rng, t):
                return len(arms)

        agent = Overshoot()
        arms = sample_arms(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="outside the offered set"):
            agent.select_arm(arms, np.random.default_rng(1))
        with pytest.raises(RuntimeError, match=r"^select_arm\(\) must be called"):
            agent.observe(0.0)  # the rejected pick left nothing pending


class TestRandomAgent:
    def test_uniform_histogram(self):
        agent = RandomAgent()
        arms = sample_arms(4, 2, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        n = 100_000
        counts = np.zeros(4, dtype=np.int64)
        for _ in range(n):
            counts[agent.select_arm(arms, rng)] += 1
            agent.observe(0.0)
        p = 0.25
        sd = math.sqrt(n * p * (1.0 - p))
        assert np.all(np.abs(counts - n * p) < 3.0 * sd)

    def test_seed_reproducible(self):
        arms = sample_arms(5, 2, np.random.default_rng(0))

        def picks(seed):
            agent = RandomAgent()
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(20):
                out.append(agent.select_arm(arms, rng))
                agent.observe(0.0)
            return out

        assert picks(7) == picks(7)


class TestOfulAgent:
    def _linear_setup(self):
        rng = np.random.default_rng(42)
        d = 3
        theta = np.zeros(d)
        theta[0] = 1.0
        A = rng.standard_normal((50, d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        A[A @ theta < 0] *= -1.0  # reward is exactly linear on this half-space
        inst = Instance(truth=ReluNetwork(theta[None, :]), sigma=0.01)
        cfg = OfulConfig(ucb=UcbConfig(sigma=0.01, S=1.0, delta=1.0 / math.sqrt(500.0), lam=0.01))
        return inst, cfg, A

    def test_flat_regret_on_linear_instance(self, patch_trial):
        inst, cfg, arms = self._linear_setup()
        patch_trial(arms=arms)
        tr = run_trial(inst, cfg, 500, 50, np.random.default_rng(0))
        assert len(tr) == 500
        last100 = tr.cum_regret[-1] - tr.cum_regret[-101]
        assert last100 < 0.15
        assert last100 < 0.15 * tr.cum_regret[-1]

    def test_identical_seeds_identical_traces(self, patch_trial):
        inst, cfg, arms = self._linear_setup()
        patch_trial(arms=arms)
        a = run_trial(inst, cfg, 60, 50, np.random.default_rng(3))
        b = run_trial(inst, cfg, 60, 50, np.random.default_rng(3))
        np.testing.assert_array_equal(a.chosen, b.chosen)
        np.testing.assert_array_equal(a.rewards, b.rewards)

    def test_ridge_absorbs_every_round(self, patch_trial):
        inst, cfg, arms = self._linear_setup()
        agent = OfulAgent(3, cfg)
        patch_trial(arms=arms, agent=agent)
        run_trial(inst, cfg, 25, 50, np.random.default_rng(4))
        assert agent.ridge.count == 25


class TestOfuReluAgent:
    def test_noiseless_lock_in(self, patch_trial):
        # two antipodal arms, one active neuron: zero regret after warmup
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        inst = Instance(truth=truth, sigma=0.0)
        arms = np.array([[1.0, 0.0], [-1.0, 0.0]])
        cfg = OfuReluConfig(t0=5, ucb=UcbConfig(sigma=0.0, S=math.sqrt(5.0), delta=0.1, lam=1.0), fit=FIT)
        patch_trial(arms=arms)
        tr = run_trial(inst, cfg, 40, 2, np.random.default_rng(0))
        assert len(tr) == 40
        assert (tr.chosen[15:] == 0).all()
        assert tr.inst_regret[15:].sum() == pytest.approx(0.0, abs=1e-12)

    def test_regret_bounded_by_k(self):
        truth = ReluNetwork(np.array([[1.0, 0.0], [0.0, 1.0]]))
        inst = Instance(truth=truth, sigma=0.1)
        cfg = OfuReluConfig(t0=8, ucb=UCB, fit=FIT)
        tr = run_trial(inst, cfg, 30, 20, np.random.default_rng(1))
        assert np.all(tr.inst_regret <= 2.0 + 1e-12)  # k = 2

    def test_fit_happens_at_t0(self):
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        inst = Instance(truth=truth, sigma=0.05)
        agent = OfuReluAgent(1, 2, 20, OfuReluConfig(t0=6, ucb=UCB, fit=FIT))
        arms = sample_arms(10, 2, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        for t in range(1, 7):
            idx = agent.select_arm(arms, rng)
            assert agent.estimate is None
            agent.observe(float(eval_f_batch(truth, arms)[idx]))
        assert agent.estimate is not None

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(OfuReluConfig(t0=12, ucb=UCB, fit=FIT), id="12"),
            pytest.param(OfuReluConfig(t0=17, ucb=UCB, fit=FIT), id="17"),
            pytest.param(plus_config((0, 0)), id="plus-never-fits"),
        ],
    )
    def test_degenerate_t0_equals_T(self, cfg, patch_trial):
        # never leaves the exploration phase: picks match a plain random agent.
        # OFU-ReLU's window is clamped to T = 12, so the fit still runs at
        # round T; an OFU-ReLU+ grid of two batches (T1 = 10) whose windows are
        # all empty never fits and explores every round for want of a fit
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        inst = Instance(truth=truth, sigma=0.0)
        agent = OfuReluAgent(1, 2, 12, cfg)
        b = run_trial(inst, RandomConfig(), 12, 6, np.random.default_rng(7))
        patch_trial(agent=agent)
        a = run_trial(inst, None, 12, 6, np.random.default_rng(7))
        np.testing.assert_array_equal(a.chosen, b.chosen)
        fits = isinstance(cfg, OfuReluConfig)
        assert (agent.estimate is not None) == fits and agent.ridge.count == 0
        assert agent.grid.M == (1 if fits else 2)
        assert agent.forced_exploration_rounds == (0 if fits else 12)

    def test_ridge_counts_only_post_t0(self, patch_trial):
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        inst = Instance(truth=truth, sigma=0.1)
        agent = OfuReluAgent(1, 2, 20, OfuReluConfig(t0=5, ucb=UCB, fit=FIT))
        patch_trial(agent=agent)
        run_trial(inst, None, 20, 8, np.random.default_rng(8))
        assert agent.ridge.count == 15

    def test_empty_restriction_falls_back(self, patch_trial):
        # nu/2 = 1 keeps only arms with |w.x| >= 1: none, so every UCB round
        # falls back to the full set
        truth = ReluNetwork(np.array([[1.0, 0.0]]))
        inst = Instance(truth=truth, sigma=0.1)
        agent = OfuReluAgent(1, 2, 14, OfuReluConfig(t0=4, ucb=UCB, fit=FIT, nu=2.0))
        patch_trial(agent=agent)
        tr = run_trial(inst, None, 14, 8, np.random.default_rng(9))
        assert agent.fallback_rounds == 10
        assert len(tr) == 14

    def test_optimism_inequality_with_exact_estimate(self, monkeypatch):
        # with estimate = truth the lifted reward is exactly linear, so the
        # restricted-set best is within 2 * beta * |x|_{V^-1} of the pick
        rng = np.random.default_rng(10)
        truth = ReluNetwork(np.array([[1.0, 0.0], [0.0, 1.0]]))
        monkeypatch.setattr(agents, "fit_erm", lambda X, y, k, cfg, init=None: truth)
        inst = Instance(truth=truth, sigma=0.05)
        ucb = UcbConfig(sigma=0.05, S=math.sqrt(10.0), delta=0.02, lam=1.0)
        cfg = OfuReluConfig(t0=1, ucb=ucb, fit=FIT, nu=0.0)
        agent = OfuReluAgent(2, 2, 60, cfg)
        arms_rng, noise_rng, agent_rng = rng.spawn(3)
        for t in range(1, 61):
            arms = sample_arms(30, 2, arms_rng)
            state = agent.ridge
            idx = agent.select_arm(arms, agent_rng)
            fvals = eval_f_batch(truth, arms)
            if t > 1:
                kept = margin_mask(arms @ truth.weights.T, 0.0)
                best = fvals[kept].max()
                feat = sign_robust_features_batch(arms[idx : idx + 1], arms[idx : idx + 1] @ truth.weights.T)[0]
                beta = conf_radius(state, ucb)
                width = math.sqrt(float(feat @ state.gram_inv @ feat))
                assert best - fvals[idx] <= 2.0 * beta * width + 1e-9
            agent.observe(float(fvals[idx]) + 0.05 * float(noise_rng.standard_normal()))


class _ReferenceSelectAgent(OfuReluAgent):
    """OfuReluAgent whose UCB rounds filter, lift and select the reference way."""

    def _select(self, arms, rng, t):
        if self._explore[t - 1]:
            return super()._select(arms, rng, t)
        idx, self._pending_features, fell_back = margin_ucb_select_reference(
            arms, self.estimate.weights, self._margins[t - 1],
            self.ridge.gram_inv @ self.ridge.moment, self.ridge.gram_inv, conf_radius(self.ridge, self._cfg.ucb),
        )
        self.fallback_rounds += fell_back
        return idx


class TestOfuReluSelectMatchesReference:
    @pytest.mark.parametrize("nu,kept", [(0.0, "all"), (0.6, "some"), (2.5, "none")])
    def test_same_picks_and_ridge(self, nu, kept, patch_trial):
        # nu = 0 keeps every arm (the path without a copy), 0.6 drops some, 2.5
        # drops all and falls back to the full set
        rng = np.random.default_rng(21)
        w = rng.standard_normal((3, 2))
        truth = ReluNetwork(w / np.linalg.norm(w, axis=1, keepdims=True))
        inst = Instance(truth=truth, sigma=0.1)
        arms = sample_arms(200, 2, rng)
        cfg = OfuReluConfig(t0=10, ucb=UCB, fit=FIT, nu=nu)
        agent, ref = OfuReluAgent(3, 2, 60, cfg), _ReferenceSelectAgent(3, 2, 60, cfg)
        patch_trial(arms=arms, agent=agent)
        a = run_trial(inst, None, 60, 200, np.random.default_rng(22))
        patch_trial(agent=ref)
        b = run_trial(inst, None, 60, 200, np.random.default_rng(22))
        mask = margin_mask(arms @ agent.estimate.weights.T, nu / 2.0)
        assert kept == ("all" if mask.all() else "none" if not mask.any() else "some")
        assert agent.fallback_rounds == ref.fallback_rounds == (50 if kept == "none" else 0)
        np.testing.assert_array_equal(a.chosen, b.chosen)
        np.testing.assert_array_equal(a.rewards, b.rewards)
        for name in ("gram", "moment", "gram_inv"):
            np.testing.assert_array_equal(getattr(agent.ridge, name), getattr(ref.ridge, name))
        assert (agent.ridge.logdet, agent.ridge.count) == (ref.ridge.logdet, ref.ridge.count)

    @pytest.mark.parametrize("nu", [0.0, 0.6, 2.5])
    def test_same_picks_and_ridge_at_the_margin_and_the_kink(self, nu, monkeypatch, patch_trial):
        # the estimate is pinned so that row 0 projects on neuron 0 at exactly
        # nu/2 and rows 1-3 sit at a kink (p = 0.0, or -0.0 where the BLAS
        # sums it so), where the filter's comparison and the lift's indicator
        # are decided by a tie
        w = np.array([[1.0, 0.0], [0.0, 1.0], [math.sqrt(0.5), math.sqrt(0.5)]])
        est = ReluNetwork(w)
        monkeypatch.setattr(agents, "fit_erm", lambda X, y, k, cfg, init=None: est)
        edge = min(nu / 2.0, 0.5)
        special = np.array([[edge, math.sqrt(1.0 - edge * edge)], [0.0, 1.0], [-0.0, -1.0], [1.0, 0.0]])
        arms = np.concatenate([special, sample_arms(8, 2, np.random.default_rng(23))])
        proj = arms @ w.T
        assert proj[0, 0] == edge and (proj[1:3, 0] == 0.0).all() and proj[3, 1] == 0.0
        inst = Instance(truth=est, sigma=0.1)
        cfg = OfuReluConfig(t0=10, ucb=UCB, fit=FIT, nu=nu)
        agent, ref = OfuReluAgent(3, 2, 60, cfg), _ReferenceSelectAgent(3, 2, 60, cfg)
        patch_trial(arms=arms, agent=agent)
        a = run_trial(inst, None, 60, len(arms), np.random.default_rng(24))
        patch_trial(agent=ref)
        b = run_trial(inst, None, 60, len(arms), np.random.default_rng(24))
        mask = margin_mask(proj, nu / 2.0)
        assert mask[0] == (nu <= 1.0)  # the row at exactly nu/2 is kept, with |p| >= nu/2 on every neuron
        assert mask[1:4].all() == (nu == 0.0)  # the kink rows pass only the empty filter
        assert np.isin(a.chosen[10:], [0, 1, 2, 3]).any()  # the tied rows are picked, not only offered
        assert agent.fallback_rounds == ref.fallback_rounds == (50 if nu > 2.0 else 0)
        np.testing.assert_array_equal(a.chosen, b.chosen)
        np.testing.assert_array_equal(a.rewards, b.rewards)
        for name in ("gram", "moment", "gram_inv"):
            np.testing.assert_array_equal(getattr(agent.ridge, name), getattr(ref.ridge, name))
        assert (agent.ridge.logdet, agent.ridge.count) == (ref.ridge.logdet, ref.ridge.count)


class TestBuildBatchGrid:
    # the schedule's inputs other than nu come from the run (k, d) and the
    # agent (ucb.sigma, C1, C2), so one config serves every run shape
    SHAPE_FREE = OfuReluPlusConfig(nu0=0.8, T1=10, a=2.0, b=2.0 ** 0.125, ucb=UCB, fit=FIT)

    def test_doubling_grid(self):
        grid = build_batch_grid(plus_config((5, 5, 5)), 1, 2, 70)
        assert grid.M == 3
        assert grid.boundaries == (0, 10, 30, 70)

    def test_nu_halving(self):
        grid = build_batch_grid(plus_config((5, 5, 5), nu0=1.0, b=2.0), 1, 2, 70)
        assert grid.nus == pytest.approx((0.5, 0.25, 0.125))

    def test_override_verbatim(self):
        # within its batch an override length is kept verbatim; beyond it, clamped to the batch
        assert build_batch_grid(plus_config((5, 10, 10)), 1, 2, 70).explore_sizes == (5, 10, 10)
        assert build_batch_grid(plus_config((20, 30, 50)), 1, 2, 70).explore_sizes == (10, 20, 40)

    def test_override_too_short(self):
        with pytest.raises(ValueError, match="^practical_override has 2 entries but the grid has 3 batches$"):
            build_batch_grid(plus_config((20, 10)), 1, 2, 70)

    def test_T_below_T1(self):
        with pytest.raises(ValueError, match="^horizon T=5 is shorter than the first batch T1=10$"):
            build_batch_grid(plus_config((5,)), 1, 2, 5)

    def test_schedule_plateau_gives_zero_increments(self):
        # at k = 1, d = 4, d^6 dominates d^2/nu^8 for every nu in this grid,
        # so the schedule is constant and the per-batch increments vanish
        grid = build_batch_grid(self.SHAPE_FREE, 1, 4, 150)
        assert all(s == 0 for s in grid.explore_sizes[1:])

    def test_schedule_follows_the_run_dimension(self):
        # at d = 2 the same config's nu_2..nu_4 fall below 2^(-1/2), where
        # d^2/nu^8 takes over and grows, so those windows fill their batches
        assert build_batch_grid(self.SHAPE_FREE, 1, 2, 150).explore_sizes == (0, 20, 40, 80)

    def test_last_boundary_clamped_to_T(self):
        grid = build_batch_grid(plus_config((5, 5, 5)), 1, 2, 60)
        assert grid.boundaries[-1] == 60
        assert all(b2 > b1 for b1, b2 in zip(grid.boundaries, grid.boundaries[1:]))

    def test_no_empty_batch_after_T(self):
        # (a^i - 1) T1 = 1, 2.5, 4.75: the third boundary reaches T = 5 once
        # rounded up, so three override entries suffice (the count
        # ceil(log(T/T1 + 1) / log a) = ceil(3.09) added an empty fourth batch)
        grid = build_batch_grid(plus_config((1, 1, 1), T1=2, a=1.5), 1, 2, 5)
        assert (grid.M, grid.boundaries) == (3, (0, 1, 3, 5))

    def test_a_near_one_gives_at_most_T_batches(self):
        # (a^i - 1) T1 stays below 1 for thousands of batches, so the
        # at-least-one-past-the-last rule sets every boundary: one batch per round
        cfg = plus_config((1,) * 1000, a=1.00000001)
        grid = build_batch_grid(cfg, 1, 2, 1000)
        assert grid.M == 1000 and grid.boundaries == tuple(range(1001))
        with pytest.raises(ValueError, match="^practical_override has 1 entries but the grid has 1000 batches$"):
            build_batch_grid(plus_config((10,), a=1.00000001), 1, 2, 1000)


class TestPhasePlanMatchesBisectRule:
    """The plan resolved at construction against the per-round bisect rule it replaced."""

    @pytest.mark.parametrize(
        "cfg,k,T,refits,forced",
        [
            (plus_config((0, 3, 2)), 1, 60, [13, 32], 10),
            (OfuReluPlusConfig(nu0=1.0, T1=10, a=2.0, b=2.0 ** (1.0 / 32.0), ucb=UCB, fit=FIT), 3, 1000, [], 1000),
            (OfuReluConfig(t0=17, ucb=UCB, fit=FIT, nu=0.4), 1, 12, [12], 0),
            (plus_config((20, 30, 50)), 1, 70, [10, 30, 70], 0),
            (TestBuildBatchGrid.SHAPE_FREE, 1, 150, [30, 70, 150], 10),
            (plus_config((6, 3, 0, 2)), 2, 80, [6, 13, 72], 0),
            (OfuReluConfig(t0=6, ucb=UCB, fit=FIT, nu=0.4), 1, 30, [6], 0),
        ],
        ids=[
            "override-starts-with-0", "theoretical-never-fits", "t0-beyond-T", "windows-fill-batches",
            "theoretical-forced-then-full", "empty-later-window", "ofu_relu",
        ],
    )
    def test_explore_refit_margin_and_forced_rounds(self, cfg, k, T, refits, forced, monkeypatch):
        # the agent's phases are read from what it does: a round that calls
        # margin_mask is a UCB round, at the margin it passes; fit_erm records
        # the round it refits at and returns a fixed estimate
        est = ReluNetwork(np.eye(2)[np.arange(k) % 2])
        refit_rounds, margins = [], []
        monkeypatch.setattr(agents, "fit_erm", lambda *args, init=None: refit_rounds.append(len(agent.history()[1])) or est)
        monkeypatch.setattr(agents, "margin_mask", lambda proj, nu: margins.append(nu) or margin_mask(proj, nu))
        agent = OfuReluAgent(k, 2, T, cfg)
        want = batch_phases_reference(agent.grid.boundaries, agent.grid.explore_sizes, agent.grid.nus, T)
        arms, rng = sample_arms(6, 2, np.random.default_rng(30)), np.random.default_rng(31)
        explore, forced_so_far = [], []
        for _ in range(T):
            calls = len(margins)
            agent.select_arm(arms, rng)
            explore.append(len(margins) == calls)
            agent.observe(0.0)
            forced_so_far.append(agent.forced_exploration_rounds)
        assert (refit_rounds, forced_so_far[-1]) == (refits, forced)
        assert explore == want[0]
        assert refit_rounds == want[1]
        assert margins == [m for m, e in zip(want[2], want[0]) if not e]
        assert forced_so_far == want[3]


class TestOfuReluPlusAgent:
    @pytest.fixture(autouse=True)
    def _patch_trial(self, patch_trial):
        self.patch_trial = patch_trial

    def _run(self, override, T, seed=0, k=1, d=2, sigma=0.05, cfg=None):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((k, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        truth = ReluNetwork(w)
        inst = Instance(truth=truth, sigma=sigma)
        cfg = cfg or plus_config(override)
        agent = OfuReluAgent(k, d, T, cfg)
        self.patch_trial(agent=agent)
        tr = run_trial(inst, None, T, 10, np.random.default_rng(seed + 1))
        return agent, tr

    def test_pool_matches_exploration_windows(self):
        agent, tr = self._run((6, 3, 2), 60)
        assert len(tr) == 60
        assert agent.pool_size == 6 + 3 + 2
        assert agent.forced_exploration_rounds == 0

    @pytest.mark.parametrize(
        "cfg,start",
        [(OfuReluConfig(t0=6, ucb=UCB, fit=FIT), 6), (plus_config((6, 3, 2)), 0)],
        ids=["ofu_relu", "ofu_relu_plus"],
    )
    def test_state_equals_full_replay(self, cfg, start):
        # the data-retention contract: at the end the incremental ridge equals
        # a from-scratch replay of the history from the replay start (after
        # OFU-ReLU's t0 exploration rows, every row for OFU-ReLU+) under the
        # final estimate
        agent, _ = self._run(None, 60, cfg=cfg)
        assert agent.estimate is not None
        state = LinearUcbState(2 * 1 * 2, UCB.lam)
        X, y = agent.history()
        assert agent.ridge.count == 60 - start
        for x, reward in zip(X[start:], y[start:]):
            feat = sign_robust_features_batch(x[None, :], x[None, :] @ agent.estimate.weights.T)[0]
            ridge_update(state, feat, reward)
        np.testing.assert_allclose(agent.ridge.gram, state.gram, atol=1e-8)
        np.testing.assert_allclose(agent.ridge.moment, state.moment, atol=1e-8)
        np.testing.assert_allclose(
            agent.ridge.gram_inv @ agent.ridge.moment, state.gram_inv @ state.moment, atol=1e-8
        )

    def test_ridge_equals_replay_at_every_ucb_round(self):
        # the narrowed contract: at every UCB round the ridge equals a
        # from-scratch replay of the history from the replay start under the
        # current estimate, while a later exploration window's rows reach the
        # ridge only through the refit that ends the window
        agent = OfuReluAgent(1, 2, 60, plus_config((6, 3, 2)))
        assert agent.grid.boundaries == (0, 10, 30, 60)
        explored = {1, 2, 3, 4, 5, 6, 11, 12, 13, 31, 32}  # two windows after the first fit
        truth = ReluNetwork(np.array([[0.6, 0.8]]))
        arm_rng, agent_rng, noise_rng = (np.random.default_rng(s) for s in (1, 2, 3))
        ucb_rounds = 0
        for t in range(1, 61):
            arms = sample_arms(10, 2, arm_rng)
            count = agent.ridge.count
            j = agent.select_arm(arms, agent_rng)
            if t not in explored:
                ucb_rounds += 1
                X, y = agent.history()
                state = LinearUcbState(2 * 1 * 2, UCB.lam)
                for x, reward in zip(X, y):
                    feat = sign_robust_features_batch(x[None, :], x[None, :] @ agent.estimate.weights.T)[0]
                    ridge_update(state, feat, reward)
                assert agent.ridge.count == t - 1
                np.testing.assert_allclose(agent.ridge.gram, state.gram, atol=1e-8)
                np.testing.assert_allclose(agent.ridge.moment, state.moment, atol=1e-8)
            agent.observe(eval_f_batch(truth, arms[j : j + 1])[0] + 0.05 * noise_rng.standard_normal())
            if t in (11, 12, 31):  # inside a later window, before the refit that ends it
                assert agent.ridge.count == count
        assert ucb_rounds == 60 - len(explored) and agent.pool_size == len(explored)

    def test_history_holds_copies_of_the_chosen_rows(self):
        agent, _ = self._run((6, 3, 2), 60)
        X, y = agent.history()
        assert X.shape == (60, 2) and y.shape == (60,)
        assert X.base is None and y.base is None  # copies, not views of the agent's own record
        X[:] = 0.0
        assert np.abs(agent.history()[0]).sum() > 0.0

    def test_later_refits_start_from_the_current_estimate(self, monkeypatch):
        # the first fit is cold (init None); each later one gets the estimate
        # the previous fit returned, and the agent keeps what the fit returns
        calls, real = [], agents.fit_erm

        def recording_fit(X, y, k, cfg, init=None):
            est = real(X, y, k, cfg, init=init)
            calls.append((len(X), init, est))
            return est

        monkeypatch.setattr(agents, "fit_erm", recording_fit)
        agent, _ = self._run((6, 3, 0, 2), 80, k=2)
        assert [n for n, _, _ in calls] == [6, 9, 11]  # the empty third window skips its refit
        assert calls[0][1] is None
        for (_, _, prev), (_, init, _) in zip(calls, calls[1:]):
            assert init is prev
        assert agent.estimate is calls[-1][2]

    def test_empty_window_skips_refit(self):
        agent, _ = self._run((6, 0, 2), 60)
        assert agent.estimate is not None
        assert agent.pool_size == 8

    def test_all_windows_empty_keeps_exploring(self):
        agent, tr = self._run((0, 0, 0), 60)
        assert agent.estimate is None
        assert agent.forced_exploration_rounds == 60
        assert len(tr) == 60

    def test_window_clamped_to_batch(self):
        # first batch is 10 rounds long; a 20-round request clamps to 10
        agent, _ = self._run((20, 0, 0), 60)
        assert agent.pool_size == 10


class TestMakeAgent:
    def test_dispatch(self):
        assert isinstance(make_agent(RandomConfig(), 1, 2, 10), RandomAgent)
        assert isinstance(make_agent(OfulConfig(ucb=UCB), 1, 2, 10), OfulAgent)
        assert isinstance(make_agent(OfuReluConfig(t0=5, ucb=UCB, fit=FIT), 1, 2, 10), OfuReluAgent)
        cfg = plus_config((5, 5, 5))
        assert isinstance(make_agent(cfg, 1, 2, 70), OfuReluAgent)

    def test_labels_flow_through(self):
        agent = make_agent(RandomConfig(label="noise-floor"), 1, 2, 10)
        assert agent.label == "noise-floor"

    def test_unknown_config(self):
        with pytest.raises(ValueError, match="^unknown agent config type object$"):
            make_agent(object(), 1, 2, 10)
