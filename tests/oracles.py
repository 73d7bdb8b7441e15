"""Independent reference implementations used only to check the library.

Everything here recomputes results by a different route than the package:
dense grids instead of closed forms, exhaustive enumeration instead of the
Hungarian method, batch solves instead of incremental updates, and
high-precision arithmetic (mpmath) for the bound formulas.  Keeping these
separate from the implementation is the point; do not import package code
for anything except types under test.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np


def grid_argmax_2d(weights: np.ndarray, n: int = 100_000) -> tuple[np.ndarray, float]:
    """Brute-force maximizer of sum_i relu(w_i . x) over n circle points."""
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    X = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    vals = np.maximum(X @ weights.T, 0.0).sum(axis=1)
    i = int(np.argmax(vals))
    return X[i], float(vals[i])


def eval_f_reference(weights: np.ndarray, x: np.ndarray) -> float:
    return float(sum(max(float(np.dot(w, x)), 0.0) for w in weights))


def sign_corrected_parameter(truth, est, nu: float) -> np.ndarray:
    """The 2kd parameter vector that pairs with the sign-robust lift.

    First k blocks are the true neurons; correction block k+i is 2*w_i when
    the estimate matched the negated neuron (|we_i + w_i| <= nu/2), else zero.
    Requires per-neuron matched error <= nu/2.  It depends on the truth, so
    only tests use it; no agent can.
    """
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    if truth.weights.shape != est.weights.shape:
        raise ValueError(f"truth {truth.weights.shape} and estimate {est.weights.shape} disagree")
    flipped = np.linalg.norm(est.weights + truth.weights, axis=1) <= nu / 2.0
    correction = 2.0 * truth.weights * flipped[:, None]
    return np.concatenate([truth.weights, correction], axis=0).ravel()


def gap_of(net, xstar) -> float:
    """Smallest unsigned margin min_i |w_i . x| of an action at the network."""
    return float(np.abs(net.weights @ np.asarray(xstar, dtype=np.float64)).min())


def empirical_sq_loss(net, X, y) -> float:
    """(1/n) * sum_i (f(x_i) - y_i)^2 over the rows x_i of X."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    p = X @ net.weights.T
    np.maximum(p, 0.0, out=p)
    resid = p.sum(axis=1) - y
    return float(np.mean(resid * resid))


# the per-round kernels as numpy reductions and broadcasts, the form the
# package replaced with bit-identical column loops


def sample_arms_reference(m: int, d: int, gen: np.random.Generator) -> np.ndarray:
    raw = gen.standard_normal((m, d))
    norms = np.linalg.norm(raw, axis=1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        raw[bad] = gen.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(raw, axis=1)
    return raw / norms[:, None]


def gen_instance_reference(k: int, d: int, alpha0: float, gen: np.random.Generator) -> np.ndarray:
    """The (k, d) weights ``gen_instance`` draws, by its own normalization and rejection loop.

    Each attempt draws a whole Gaussian matrix and normalizes it with
    ``np.linalg.norm``; an attempt with a zero row, or a pair of rows closer
    than alpha0 up to sign, is thrown away.  Returns None after 10^4 attempts.
    """
    for _ in range(10_000):
        raw = gen.standard_normal((k, d))
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms == 0.0):
            continue
        w = raw / norms[:, None]
        if k == 1 or alpha0 == 0.0:
            return w
        diff = np.linalg.norm(w[:, None, :] - w[None, :, :], axis=2)
        summ = np.linalg.norm(w[:, None, :] + w[None, :, :], axis=2)
        sep = np.minimum(diff, summ)
        if sep[np.triu_indices(k, 1)].min() >= alpha0:
            return w
    return None


def eval_f_batch_reference(weights: np.ndarray, actions: np.ndarray) -> np.ndarray:
    p = actions @ weights.T
    np.maximum(p, 0.0, out=p)
    return p.sum(axis=1)


def row_sum_reference(a: np.ndarray) -> np.ndarray:
    return a.sum(axis=1)


def sign_robust_features_reference(actions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return sign_robust_lift_reference(actions, actions @ weights.T)


def sign_robust_lift_reference(actions: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """The lift from the (m, k) projection on the estimate, as the package's kernel takes it."""
    ind = (proj >= 0.0).astype(np.float64)  # (m, k)
    first = ind[:, :, None] * actions[:, None, :]  # (m, k, d)
    second = (0.5 - ind)[:, :, None] * actions[:, None, :]
    (m, d), k = actions.shape, proj.shape[1]
    return np.concatenate([first, second], axis=1).reshape(m, 2 * k * d)


def margin_mask_reference(actions: np.ndarray, weights: np.ndarray, nu: float) -> np.ndarray:
    return (np.abs(actions @ weights.T) >= nu).all(axis=1)


def ucb_quad_reference(feats: np.ndarray, gram_inv: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis norms |x|^2_{V^-1} of the rows of feats."""
    return ((feats @ gram_inv) * feats).sum(axis=1)


def ucb_select_reference(theta_hat: np.ndarray, gram_inv: np.ndarray, beta: float, feats: np.ndarray) -> int:
    quad = ucb_quad_reference(feats, gram_inv)
    np.maximum(quad, 0.0, out=quad)
    return int(np.argmax(feats @ theta_hat + beta * np.sqrt(quad)))


def margin_ucb_select_reference(arms, weights, nu, theta_hat, gram_inv, beta):
    """One OFU-ReLU UCB round: (index into arms, chosen lifted row, fell back).

    Filters at margin nu, falling back to every arm when none survives,
    lifts the survivors and picks by the closed-form UCB score.
    """
    mask = margin_mask_reference(arms, weights, nu)
    fell_back = not mask.any()
    if fell_back:
        mask = np.ones(len(arms), dtype=bool)
    kept = np.flatnonzero(mask)
    feats = sign_robust_features_reference(arms[kept], weights)
    j = ucb_select_reference(theta_hat, gram_inv, beta, feats)
    return int(kept[j]), feats[j], fell_back


def batch_phases_reference(boundaries, explore_sizes, nus, T: int):
    """The batched agent's phases by the per-round bisect rule it once ran.

    Round t belongs to the first batch i with t <= boundaries[i + 1] (the
    last batch past T).  It explores while t <= boundaries[i] +
    explore_sizes[i] or while nothing is fitted yet (forced when outside the
    window), and an explored round that ends a nonempty window refits.
    Returns per-round explore flags, the refit rounds, per-round margins
    nu_i / 2 and the running count of forced rounds.
    """
    M = len(boundaries) - 1
    explore, refits, margins, forced = [], [], [], []
    fitted, n_forced = False, 0
    for t in range(1, T + 1):
        i = bisect.bisect_left(boundaries, t, 1, M) - 1
        end = boundaries[i] + explore_sizes[i]
        explores = t <= end or not fitted
        n_forced += explores and t > end
        if explores and t == end and boundaries[i] < t:
            refits.append(t)
            fitted = True
        explore.append(explores)
        margins.append(nus[i] / 2.0)
        forced.append(n_forced)
    return explore, refits, margins, forced


# the copy-on-update ridge engine, the form the package replaced with one
# state updated in place


@dataclass(frozen=True)
class RidgeReference:
    gram: np.ndarray
    moment: np.ndarray
    gram_inv: np.ndarray
    theta_hat: np.ndarray
    logdet: float
    since_refactor: int


def ridge_init_reference(dim: int, lam: float) -> RidgeReference:
    eye = np.eye(dim)
    return RidgeReference(lam * eye, np.zeros(dim), eye / lam, np.zeros(dim), dim * math.log(lam), 0)


def ridge_update_reference(state: RidgeReference, x: np.ndarray, y: float, refactor_every: int) -> RidgeReference:
    """A fresh state after one observation: Sherman-Morrison, or a full
    re-factorization on every refactor_every-th update."""
    a = np.asarray(x, dtype=np.float64)
    gram = state.gram + np.outer(a, a)
    moment = state.moment + float(y) * a
    since = state.since_refactor + 1
    if since >= refactor_every:
        gram_inv = np.linalg.inv(gram)
        _, logdet = np.linalg.slogdet(gram)
        since = 0
    else:
        inv_a = state.gram_inv @ a
        denom = 1.0 + float(a @ inv_a)
        gram_inv = state.gram_inv - np.outer(inv_a, inv_a) / denom
        logdet = state.logdet + math.log(denom)
    gram_inv = 0.5 * (gram_inv + gram_inv.T)
    return RidgeReference(gram, moment, gram_inv, gram_inv @ moment, logdet, since)


# the artifact writers row by row and point by point, the form the package
# replaced with whole-column formatting


def _fmt(v: float) -> str:
    return "%.12g" % float(v)


def export_csv_reference(data, path) -> None:
    """One ``csv.writer`` row per round (traces) or per time step (aggregates)."""
    items = list(data)
    is_agg = bool(items) and hasattr(items[0], "mean_cum_regret")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if is_agg:
            writer.writerow(["algorithm", "t", "mean_cum_regret", "ci_half"])
            for agg in items:
                for i in range(len(agg.t)):
                    writer.writerow(
                        [agg.algorithm, int(agg.t[i]), _fmt(agg.mean_cum_regret[i]), _fmt(agg.ci_half[i])]
                    )
        else:
            writer.writerow(["algorithm", "seed", "t", "chosen_index", "reward", "inst_regret", "cum_regret"])
            for tr in items:
                for i in range(len(tr)):
                    writer.writerow(
                        [
                            tr.algorithm,
                            tr.seed,
                            int(tr.t[i]),
                            int(tr.chosen[i]),
                            _fmt(tr.rewards[i]),
                            _fmt(tr.inst_regret[i]),
                            _fmt(tr.cum_regret[i]),
                        ]
                    )


def points_reference(xs, ys) -> str:
    """SVG point list, one %.2f pair per point."""
    return " ".join("%.2f,%.2f" % (x, y) for x, y in zip(xs, ys))


def exhaustive_match(est: np.ndarray, truth: np.ndarray) -> tuple[float, tuple, tuple]:
    """Minimum assignment cost over all k! permutations and 2^k sign choices.

    Returns (cost, perm, signs) with cost = sum_i ||s_i * est[perm[i]] - truth[i]||^2.
    """
    k = truth.shape[0]
    best = (math.inf, None, None)
    for perm in itertools.permutations(range(k)):
        for signs in itertools.product((1.0, -1.0), repeat=k):
            cost = 0.0
            for i in range(k):
                diff = signs[i] * est[perm[i]] - truth[i]
                cost += float(diff @ diff)
            if cost < best[0]:
                best = (cost, perm, signs)
    return best


def ridge_solve(X: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Batch ridge estimate and Gram matrix for the same data."""
    V = lam * np.eye(X.shape[1]) + X.T @ X
    theta = np.linalg.solve(V, X.T @ y)
    return theta, V


def ellipsoid_max_index(
    theta_hat: np.ndarray, V: np.ndarray, beta: float, candidates: np.ndarray, rng, n_dirs: int = 20_000
) -> tuple[int, np.ndarray]:
    """Sampled joint maximization of x . theta over candidates x ellipsoid.

    The ellipsoid is {theta_hat + beta * V^{-1/2} u : ||u|| <= 1}; a linear
    objective attains its maximum on the boundary, so boundary sampling is
    enough.  Returns the winning candidate index and each candidate's sampled
    optimistic value.
    """
    evals, evecs = np.linalg.eigh(V)
    inv_half = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    us = rng.standard_normal((n_dirs, V.shape[0]))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    thetas = theta_hat[None, :] + beta * (us @ inv_half)
    scores = candidates @ thetas.T
    per_candidate = scores.max(axis=1)
    return int(np.argmax(per_candidate)), per_candidate


# bound formulas in 50-digit arithmetic


def mp_zeta(n: int, k: int, d: int, sigma: float, delta: float) -> float:
    with mp.workdps(50):
        k_, d_, s_, dl_, n_ = map(mp.mpf, (k, d, sigma, delta, n))
        ks = mp.mpf(max(k, sigma))
        bracket = d_ * k_ * max(mp.mpf(1), mp.log(1 + mp.sqrt(n_ / (d_ * k_)))) + mp.log(4 / dl_)
        return float(mp.sqrt((4096 * k_**2 * ks**2 / n_) * bracket))


def mp_alpha(zeta: float, k: int, d: int) -> float:
    with mp.workdps(50):
        return float(727 * mp.pi ** mp.mpf("-0.25") * k * mp.mpf(d) ** mp.mpf("0.25") * (2 * mp.mpf(zeta)) ** mp.mpf("0.25"))


def mp_sphere_area(n_minus_1: int) -> float:
    # surface area of S^{n-1} embedded in R^n
    with mp.workdps(50):
        n = mp.mpf(n_minus_1 + 1)
        return float(2 * mp.pi ** (n / 2) / mp.gamma(n / 2))


def mp_h(eta: float, eps: float, k: int, d: int):
    """h ratio, or None when the denominator is nonpositive (vacuous)."""
    with mp.workdps(50):
        e_, eta_, k_, d_ = mp.mpf(eps), mp.mpf(eta), mp.mpf(k), mp.mpf(d)
        s_dm2 = 2 * mp.pi ** (mp.mpf(d - 1) / 2) / mp.gamma(mp.mpf(d - 1) / 2)  # |S^{d-2}|
        s_dm3 = 2 * mp.pi ** (mp.mpf(d - 2) / 2) / mp.gamma(mp.mpf(d - 2) / 2)  # |S^{d-3}|
        num = k_ * e_**3 * s_dm3 / 2
        den = e_**2 * (1 - d_ * e_**2 / 2) * s_dm2 / 8 - eta_ - 6 * k_ * d_ * e_**3 * s_dm2
        if den <= 0:
            return None
        return float(num / den)


def mp_t0(nu: float, k: int, d: int, sigma: float, T: float, C1: float = 1.0, C2: float = 1.0) -> float:
    with mp.workdps(50):
        nu_, k_, d_, T_ = mp.mpf(nu), mp.mpf(k), mp.mpf(d), mp.mpf(T)
        ks = mp.mpf(max(k, sigma))
        bracket = d_ * k_ * max(mp.log(d_ * ks), mp.log(mp.log(T_))) + mp.log(64 * T_)
        t1 = mp.mpf(C1) * k_**10 * d_**2 * ks**2 / nu_**8 * bracket
        t2 = mp.mpf(C2) * k_**10 * d_**6 * ks**2 * bracket
        return float(max(t1, t2))


def strip_integral(beta0: np.ndarray, beta1: np.ndarray, eps: float) -> np.ndarray:
    """Closed form of integral_{-eps}^{eps} |b0 + b1*w - relu(w)| dw, vectorized.

    Split at 0: the negative half is G(b0, b1), the positive half G(b0, 1-b1),
    where G(a, b) = integral_0^eps |a - b*u| du.
    """

    def G(a, b):
        out = np.empty(np.broadcast(a, b).shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            u0 = np.where(b != 0.0, a / np.where(b != 0.0, b, 1.0), np.inf)
        interior = (u0 > 0.0) & (u0 < eps) & (b != 0.0)
        abs_b = np.abs(b)
        out_int = abs_b * (u0**2 + (eps - u0) ** 2) / 2.0
        out_edge = np.abs(a * eps - b * eps**2 / 2.0)
        out = np.where(interior, out_int, out_edge)
        return out

    return G(beta0, beta1) + G(beta0, 1.0 - beta1)


def strip_integral_grid_min(eps: float, lo: float = -2.0, hi: float = 2.0, step: float = 1e-3) -> float:
    """Minimum of the strip integral over the (b0, b1) grid, chunked."""
    b0 = np.arange(lo, hi + step / 2, step)
    b1 = np.arange(lo, hi + step / 2, step)
    best = math.inf
    chunk = 200
    for i in range(0, len(b0), chunk):
        block = strip_integral(b0[i : i + chunk, None], b1[None, :], eps)
        best = min(best, float(block.min()))
    return best


def _unit_rows_reference(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    w = rng.normal(size=(k, d))
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    while (norms < 1e-12).any():
        bad = norms[:, 0] < 1e-12
        w[bad] = rng.normal(size=(int(bad.sum()), d))
        norms = np.linalg.norm(w, axis=1, keepdims=True)
    return w / norms


def fit_erm_reference(X: np.ndarray, y: np.ndarray, k: int, restarts: int, max_iters: int,
                      step_size: float, tol: float, seed: int, init: np.ndarray | None = None) -> np.ndarray:
    """Best-of-restarts projected gradient descent, one restart after another.

    The per-restart loop that ``fit_erm`` replaced with a stacked descent,
    kept verbatim but for its stop rule: a restart stops at its pre-step rows
    once the projected step (redraws included) would move them by at most
    step_size * tol.  Given ``init``, (k, d) unit rows, the loop runs one
    restart that starts there instead, and draws rows only to replace a
    collapsed one.  Returns the winning (k, d) weights, or raises
    a RuntimeError when every restart's loss went non-finite.
    """
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    best_loss = math.inf
    best_w = None
    for _ in range(restarts if init is None else 1):
        w = _unit_rows_reference(rng, k, X.shape[1]) if init is None else np.array(init, dtype=np.float64)
        diverged = False
        for _ in range(max_iters):
            p = w @ X.T  # (k, n)
            resid = np.where(p >= 0.0, p, 0.0).sum(axis=0) - y
            loss = float(np.mean(resid * resid))
            if not math.isfinite(loss):
                diverged = True
                break
            grad = (2.0 / n) * (((p > 0.0) * resid) @ X)  # (k, d)
            step = w - step_size * grad
            norms = np.linalg.norm(step, axis=1, keepdims=True)
            small = norms[:, 0] < 1e-12
            if small.any():  # a row collapsed onto the origin; restart it in place
                step[small] = _unit_rows_reference(rng, int(small.sum()), X.shape[1])
                norms = np.linalg.norm(step, axis=1, keepdims=True)
            step = step / norms
            if float(np.sqrt(((step - w) * (step - w)).sum())) <= step_size * tol:
                break  # the projected step no longer moves the rows: keep them
            w = step
        if diverged:
            continue
        p = w @ X.T
        resid = np.where(p >= 0.0, p, 0.0).sum(axis=0) - y
        final_loss = float(np.mean(resid * resid))
        if math.isfinite(final_loss) and final_loss < best_loss:
            best_loss = final_loss
            best_w = w
    if best_w is None:
        raise RuntimeError("all restarts produced non-finite losses")
    return best_w
