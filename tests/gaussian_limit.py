"""The Gaussian limit of one pure-exploration phase: a test oracle for the estimator's error.

With sampling policy p over the rows x_i, let xbar = p'X and
Sigma = sum_i p_i (x_i - xbar)(x_i - xbar)'.  A reward is
r_t = (x_{a_t} - xbar)'theta* + c_t + eta_t with c_t = xbar'theta* + nu_t,
and the arm a_t is drawn independently of c_t, however the shift nu_t was
chosen from the past.  After B rounds the ridge estimate on centered rows
with regularizer beta is then close in law to

    theta_hat - theta* = (B Sigma + beta I)^{-1} (-beta theta* + sqrt(B) s Sigma^{1/2} zeta),

zeta ~ N(0, I), where s^2 = sigma^2 + mean_t c_t^2: the shift adds its
second moment to the noise variance and no bias.  Nothing here runs a bandit.
"""

import numpy as np


def noise_scale(features, policy, theta_star, shifts, sigma=1.0) -> float:
    """s = sqrt(sigma^2 + mean_t (xbar'theta* + nu_t)^2) for the shift values ``shifts``."""
    offset = policy @ features @ theta_star
    return float(np.sqrt(sigma**2 + np.mean((offset + np.asarray(shifts)) ** 2)))


def anchored_errors(features, policy, theta_star, budget, beta, s, anchor=0, draws=4000, seed=0) -> np.ndarray:
    """``draws`` samples of max_i |(x_i - x_anchor)'(theta_hat - theta*)| from the limit."""
    x = np.asarray(features, dtype=float)
    centered = x - policy @ x
    sigma = (centered.T * policy) @ centered
    w, v = np.linalg.eigh(sigma)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    zeta = np.random.default_rng(seed).standard_normal((draws, x.shape[1]))
    rhs = -beta * theta_star + np.sqrt(budget) * s * zeta @ root
    gap = np.linalg.solve(budget * sigma + beta * np.eye(x.shape[1]), rhs.T).T
    return np.abs(gap @ (x - x[anchor]).T).max(axis=1)
