"""Exact Gaussian Process regression with a squared-exponential kernel.

Supports multi-output models that share a single set of hyperparameters
(one Gram factorization serves every output dimension), a deterministic
marginal-likelihood hyperparameter search in log-space, and the joint
posterior over function values and first derivatives:

    mean      mu  = K(X*,X) (K(X,X) + sn2 I)^-1 y
    variance  Sig = K(X*,X*) - K(X*,X) (K(X,X) + sn2 I)^-1 K(X,X*)
    d-mean    mu' = K10(X*,X) (K(X,X) + sn2 I)^-1 y
    d-var     Sig'= K11(X*,X*) - K10(X*,X) (K(X,X) + sn2 I)^-1 K01(X,X*)

For the SE kernel k(u, v) = sp2 exp(-|u - v|^2 / (2 l^2)) the cross
covariances are analytic:

    dk/du_b          = -(u_b - v_b) / l^2 * k(u, v)
    d2k/du_b dv_c    = (delta_bc / l^2 - (u_b - v_b)(u_c - v_c) / l^4) * k

so K11 at u = v is (sp2 / l^2) I, which is the prior derivative variance
far from all data. The prior mean is fixed at zero: far from the training
inputs the posterior mean decays to 0 and the variance reverts to sp2.

Every factorization is LAPACK's ``dpotrf`` called directly, in place, by
:func:`_factor_in_place`, which holds the one rule for a failed factor, and
every solve is LAPACK's ``dpotrs`` (:func:`_solve`). :func:`fit_gp` scores
its lengthscale grid and each polish step through one objective
(:func:`_profiled_nlml`), which builds and factors every C in one buffer,
with the kernel exponent floored at ``_EXPONENT_FLOOR`` so that no entry of
C is subnormal; that floor changes no score, as the objective's docstring
shows. A fit computes its inputs' squared distances once, for the search
and for the fitted model alike.
Training inputs, outputs and queries are (N, d) batches, and every
prediction keeps the queries' leading axis; a 1-d array is a column of N
scalars, so a 1-input model takes ``t`` and ``t[:, None]`` alike. Non-finite
values are stopped where data enter: training data in :func:`build_gp` and
:func:`fit_gp`, queries in the predictions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._scipy import dpotrf, dpotrs
from .types import _as_batch, _sq_dists, from_dict, to_dict

# Likelihood noise is kept at or above this fraction of the signal variance.
NOISE_FLOOR_RATIO = 1e-8
# fit_gp's default and largest noise-to-signal ratio: near-interpolation.
NOISE_RATIO_MAX = 1e-6
# Lengthscales, as multiples of the data's ell_center, at which fit_gp scores
# the profiled likelihood: 2 points per decade over its lengthscale bounds, so
# the polish brackets one decade. At 4 per decade no fit of the bench suites or
# of eight seeded fit corpora ended higher; at 1 per decade two lost 8-19 nats.
LENGTHSCALE_GRID = np.logspace(-3.0, 3.0, 13)
# Brent's step tolerance on log l, relative to |log l| + 1. On the bench fits
# a finer step moves the LML by less than its round-off at the floor ratio.
_BRENT_TOL = 1e-6
# The floor on the kernel exponent -sq / (2 l^2) in the likelihood search
# (_profiled_nlml). e^-345 ~ 1.2e-150, so a product of two floored
# correlations is still a normal float; below about -708, exp leaves NumPy's
# fast path and dpotrf computes on subnormals.
_EXPONENT_FLOOR = -345.0


@dataclass(frozen=True)
class KernelParams:
    """SE kernel hyperparameters. ``noise_variance`` is clamped up to the
    structural floor ``NOISE_FLOOR_RATIO * signal_variance`` on construction."""

    signal_variance: float
    lengthscale: float
    noise_variance: float = 0.0

    def __post_init__(self):
        if not (
            np.isfinite(self.signal_variance)
            and np.isfinite(self.lengthscale)
            and np.isfinite(self.noise_variance)
        ):
            raise ValueError("kernel parameters must be finite")
        if self.signal_variance <= 0 or self.lengthscale <= 0:
            raise ValueError("signal variance and lengthscale must be positive")
        # The kernel divides by l^2. A product, not **, so that an overflow
        # gives inf rather than raising OverflowError.
        ell_sq = float(self.lengthscale) * float(self.lengthscale)
        if not np.finfo(float).tiny <= ell_sq <= np.finfo(float).max:
            raise ValueError(
                f"lengthscale {self.lengthscale:g} is out of range: its square is not a positive normal float"
            )
        if self.noise_variance < 0:
            raise ValueError("noise variance must be nonnegative")
        floor = NOISE_FLOOR_RATIO * self.signal_variance
        if self.noise_variance < floor:
            object.__setattr__(self, "noise_variance", floor)
        # The diagonal of K + sn2 I; Python floats overflow to inf here.
        if not math.isfinite(float(self.signal_variance) + float(self.noise_variance)):
            raise ValueError(
                f"signal variance {self.signal_variance:g} and noise variance {self.noise_variance:g}"
                " sum past the largest float"
            )

    to_dict = to_dict
    from_dict = classmethod(from_dict)


def _se_matrix(sq: np.ndarray, params: KernelParams) -> np.ndarray:
    """The SE kernel at the squared distances ``sq``."""
    return params.signal_variance * np.exp(-sq / (2.0 * params.lengthscale**2))


def _factor_in_place(a: np.ndarray) -> tuple[np.ndarray, float] | None:
    """(chol, log_det): the lower Cholesky factor of the exactly symmetric,
    C-contiguous matrix ``a``, written over ``a``'s own buffer, and the sum
    of the logs of its diagonal; or None when ``a`` is not positive definite.

    ``a``'s transpose is an F-order array with the same entries, which
    LAPACK ``dpotrf`` factors without a copy. The strict upper triangle is
    zeroed, so the factor is bitwise ``scipy.linalg.cholesky(a, lower=True)``.
    A factor whose log determinant is not finite (``a`` held a NaN or an inf)
    counts as a failure too, since OpenBLAS's ``dpotrf`` reports success on it.
    """
    chol, info = dpotrf(a.T, lower=1, overwrite_a=1)
    if info:
        return None
    log_det = float(np.log(chol.diagonal()).sum())
    return (chol, log_det) if math.isfinite(log_det) else None


def _solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(chol chol^T) x = b`` with LAPACK ``dpotrs``; bitwise equal to
    ``scipy.linalg.cho_solve((chol, True), b)``."""
    return dpotrs(chol, b, lower=1)[0]


@dataclass(frozen=True, eq=False)
class GPModel:
    """Fitted GP: training data, shared hyperparameters, and the cached
    Cholesky factorization products that make prediction O(N) per query.
    :func:`build_gp` on the training data and ``params`` rebuilds it bitwise."""

    inputs: np.ndarray
    outputs: np.ndarray
    params: KernelParams
    chol: np.ndarray
    alpha: np.ndarray

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]

    @property
    def d_out(self) -> int:
        return self.outputs.shape[1]


def _training_data(inputs, outputs) -> tuple[np.ndarray, np.ndarray]:
    """``inputs`` and ``outputs`` as finite batches of one nonzero length;
    ValueError otherwise."""
    x = _as_batch(inputs, "inputs")
    y = _as_batch(outputs, "outputs")
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and outputs must have the same length")
    if x.shape[0] < 1:
        raise ValueError("at least one training point required")
    return x, y


def build_gp(inputs, outputs, params: KernelParams) -> GPModel:
    """Factorize the Gram matrix K + sn2 I and cache the solve against the
    outputs.

    K + sn2 I is built in one buffer and factored there once. In exact
    arithmetic its smallest eigenvalue is at least sn2, which
    ``KernelParams`` holds at or above ``NOISE_FLOOR_RATIO *
    signal_variance``, so it factors without added jitter, exact duplicate
    inputs included. A factorization that fails all the same raises
    RuntimeError("non-PD Gram matrix").
    """
    x, y = _training_data(inputs, outputs)
    return _build(x, y, params, _sq_dists(x, x))


def _build(x: np.ndarray, y: np.ndarray, params: KernelParams, sq: np.ndarray) -> GPModel:
    """:func:`build_gp` on checked batches ``x`` and ``y`` whose squared
    distances ``sq`` the caller has computed."""
    gram = _se_matrix(sq, params)
    gram.ravel()[:: x.shape[0] + 1] += params.noise_variance  # a view: gram is C-contiguous
    factor = _factor_in_place(gram)
    if factor is None:
        raise RuntimeError("non-PD Gram matrix")
    chol, _ = factor
    alpha = _solve(chol, y)
    x = x.copy()
    y = y.copy()
    x.setflags(write=False)
    y.setflags(write=False)
    return GPModel(inputs=x, outputs=y, params=params, chol=chol, alpha=alpha)


def log_marginal_likelihood(model: GPModel) -> float:
    """Log marginal likelihood summed over output dimensions (shared params)."""
    n, d_out = model.n, model.d_out
    data_fit = -0.5 * float(np.sum(model.outputs * model.alpha))
    log_det = float(np.sum(np.log(np.diag(model.chol))))
    return data_fit - d_out * log_det - 0.5 * n * d_out * np.log(2.0 * np.pi)


def _profiled_nlml(neg_half_sq, y, log_sp2_bounds):
    """The objective ``nlml(ell, ratio)`` of one fit's grid and polish: the
    negative LML at lengthscale ``ell`` and noise ratio ``ratio`` with the
    signal variance at its closed-form optimum sp2 = sum(y * C^-1 y) /
    (n d_out), clipped to ``log_sp2_bounds`` (Rasmussen & Williams 2006,
    5.4), and that variance's log.

    Each call builds C = exp(-sq / (2 l^2)) + ratio I in one n x n buffer,
    allocated once, and factors it there with :func:`_factor_in_place`;
    what the calls share (C's diagonal view, n d_out, the constant term, the
    lowest exponent) is computed once. A C that fails to factor scores
    (inf, nan), as does one that holds a NaN or an inf.

    Where some exponent -sq / (2 l^2) lies below ``_EXPONENT_FLOOR``, every
    such exponent is raised to the floor before ``exp``, so no entry of C
    is subnormal or zero: ``exp`` leaves its fast path below about -708,
    and ``dpotrf`` slows on such entries. This changes no score. A floored
    entry moves by less than 1.2e-150, so C moves by less than n 1.2e-150
    in norm, while C's smallest eigenvalue is at least the ratio, 1e-8 or
    more; and two floored values multiply to a normal float. Every such
    change in the factor and the solve is absorbed, to the last bit, where
    it meets a normal-sized value: a diagonal entry of the factor, a term
    of y, or the sums that form the log determinant and sum(y * C^-1 y).
    So each score is ``==`` to the unfloored one.
    """
    corr = np.empty(neg_half_sq.shape)
    lowest = float(neg_half_sq.min())
    n, d_out = y.shape
    nd = n * d_out
    half_nd = 0.5 * n * d_out
    const = half_nd * np.log(2.0 * np.pi)
    lo, hi = log_sp2_bounds
    diag = corr.ravel()[:: n + 1]  # a view: corr is C-contiguous

    def nlml(ell, ratio) -> tuple[float, float]:
        # (-sq/2) / l^2 == -sq / (2 l^2) bitwise, since halving and doubling are exact.
        ell_sq = ell**2
        np.divide(neg_half_sq, ell_sq, out=corr)
        if lowest / ell_sq < _EXPONENT_FLOOR:  # division is monotone: this is corr.min()
            np.maximum(corr, _EXPONENT_FLOOR, out=corr)
        np.exp(corr, out=corr)
        np.add(diag, ratio, out=diag)
        factor = _factor_in_place(corr)
        if factor is None:
            return np.inf, np.nan
        chol, log_det = factor
        quad = float((y * dpotrs(chol, y, lower=1)[0]).sum())
        log_sp2 = min(max(np.log(quad / nd), lo), hi)
        return float(0.5 * quad / np.exp(log_sp2) + half_nd * log_sp2 + d_out * log_det + const), float(log_sp2)

    return nlml


def _brent(f, a: float, b: float, x: float, fx: float) -> None:
    """Brent's local minimization of ``f`` on [a, b] from the point ``x``
    with f(x) = ``fx``: parabolic steps where they fit, golden-section steps
    where they do not, down to a step of ``_BRENT_TOL`` (|x| + 1) (Brent 1973,
    *Algorithms for Minimization without Derivatives*, ch. 5, ``localmin``).
    The caller reads the result off its own ``f``.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = _BRENT_TOL * (abs(x) + 1.0)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


class PolishResult(NamedTuple):
    """Where :func:`minimize` ended: ``x`` = (log sp2, log l, log ratio), its
    profiled negative LML ``fun``, and the objective calls ``nfev`` it made."""

    x: np.ndarray
    fun: float
    nfev: int


def minimize(fun, x0, fun0: float, bounds: tuple[float, float]) -> PolishResult:
    """Polish the grid optimum ``x0`` = (log sp2, log l, log ratio), whose
    profiled negative LML is ``fun0``, along log l within ``bounds``.

    ``fun(log_l, log_ratio)`` returns the profiled negative LML and its
    log sp2. NOISE_FLOOR_RATIO is scored at x0's lengthscale, and
    :func:`_brent` runs from there at whichever of the two ratios scores
    better. The other ratio is then scored at the lengthscale that search
    found, and searched from there only if it beats every point so far. On
    the bench's fits the floor mostly wins at x0 and ends best, so most fits
    make one search. When x0's ratio is the floor, there is one search. The
    result is the best point evaluated, or ``x0`` when none beats ``fun0``.

    The benchmark tracer (``perfbench/tracing.py``) patches this module-level
    name and sums the ``nfev`` of its results as the fit's objective
    evaluations, so the name and the call shape stay until the tracer binds
    layers by role (ROADMAP item 0).
    """
    x_best, f_best, nfev = np.asarray(x0, dtype=float), fun0, 0

    def along(log_ratio):
        def f(log_ell):
            nonlocal x_best, f_best, nfev
            nfev += 1
            val, log_sp2 = fun(log_ell, log_ratio)
            if val < f_best:
                x_best, f_best = np.array([log_sp2, log_ell, log_ratio]), val
            return val

        return f

    lo, hi = map(float, bounds)
    log_ell, ratio, f_start, other = float(x0[1]), float(x0[2]), fun0, None
    floor = float(np.log(NOISE_FLOOR_RATIO))
    if ratio > floor:
        f_floor = along(floor)(log_ell)
        if f_floor < fun0:  # the floor is searched first
            ratio, f_start, other = floor, f_floor, ratio
        else:
            other = floor
    _brent(along(ratio), lo, hi, log_ell, f_start)
    if other is not None:
        log_ell = float(x_best[1])
        f_other = along(other)(log_ell)
        if x_best[2] == other:  # the other ratio beat every point so far
            _brent(along(other), lo, hi, log_ell, f_other)
    return PolishResult(x_best, f_best, nfev)


def fit_gp(inputs, outputs, noise_ratio: float = NOISE_RATIO_MAX) -> GPModel:
    """Fit a (multi-output, shared-hyperparameter) GP to the data.

    The hyperparameters maximize the log marginal likelihood in log-space
    by one deterministic search. Its bounds follow the data: lengthscale
    in [1e-3, 1e3] x ell_center with ell_center = input diameter /
    sqrt(d_in), and signal variance in [1e-6, 1e6] x output variance.
    ``noise_ratio``, the noise-to-signal ratio the search runs at, must lie
    in [NOISE_FLOOR_RATIO, NOISE_RATIO_MAX]; the polish may lower it to
    the floor, never raise it.

    With the noise ratio held at ``noise_ratio`` and C = corr + ratio I,
    the signal variance has the closed-form optimum
    sp2 = sum(y * C^-1 y) / (n d_out) (Rasmussen & Williams 2006, 5.4),
    which leaves the lengthscale as the only free coordinate. The profiled
    negative LML is scored at ``LENGTHSCALE_GRID`` x ell_center (a grid
    point whose Cholesky fails scores +inf), and :func:`minimize` polishes
    the best grid point by a Brent line search over log l between its two
    grid neighbours: at ``noise_ratio`` or NOISE_FLOOR_RATIO, whichever
    scores better at the grid point, and then at the other ratio only if,
    at the lengthscale that search found, it beats every point so far; the
    grid point is kept if the polish ends worse.
    All-zero outputs skip the search and get lengthscale ell_center with a
    negligible signal variance, so the posterior is the certain zero.
    Raises ValueError for no training point, for a ``noise_ratio`` outside
    its range and for distinct inputs too close or too far apart for their
    squared distances to be normal floats, and RuntimeError("non-PD Gram
    matrix") when every grid point fails.
    """
    x, y = _training_data(inputs, outputs)
    if not NOISE_FLOOR_RATIO <= noise_ratio <= NOISE_RATIO_MAX:
        raise ValueError(f"noise ratio must lie in [{NOISE_FLOOR_RATIO:g}, {NOISE_RATIO_MAX:g}]")

    sq = _sq_dists(x, x)
    sq_max = float(sq.max())
    if not np.finfo(float).tiny <= sq_max < np.inf and np.any(x != x[0]):
        scale = float(np.ptp(x, axis=0).max())
        size, flow = ("large", "overflow") if sq_max == np.inf else ("small", "underflow")
        raise ValueError(
            f"input scale {scale:.3g} is too {size}: the squared distances "
            f"between distinct inputs {flow}"
        )
    # sqrt is monotone and correctly rounded, so this is pdist(x).max().
    # Identical inputs (or a single one) have no scale; 1 stands in.
    diam = float(np.sqrt(sq_max)) if sq_max > 0.0 else 1.0
    ell_center = diam / np.sqrt(x.shape[1])

    out_var = float(np.mean(np.var(y, axis=0)))
    out_scale = float(np.mean(y**2))
    base = out_var if out_var > 0 else out_scale

    if base <= 0.0:
        # All-zero outputs: any hyperparameters give the zero posterior mean;
        # keep the prior variance negligible so predictions stay certain.
        tiny = KernelParams(
            signal_variance=1e-16 * max(diam, 1.0) ** 2,
            lengthscale=float(ell_center),
            noise_variance=0.0,
        )
        return _build(x, y, tiny, sq)

    log_sp2_bounds = (np.log(1e-6 * base), np.log(1e6 * base))
    nlml = _profiled_nlml(-0.5 * sq, y, log_sp2_bounds)
    grid = LENGTHSCALE_GRID * ell_center
    # Each grid point's ** 2 is libm pow, as each polish step's is; the
    # array's grid**2 differs from it in the last bit for some l.
    scores = [nlml(ell, noise_ratio) for ell in grid]
    best = int(np.argmin([val for val, _ in scores]))  # a tie goes to the shorter lengthscale
    best_val, best_log_sp2 = scores[best]
    if best_val == np.inf:
        raise RuntimeError("non-PD Gram matrix")
    best_u = np.array([best_log_sp2, np.log(grid[best]), np.log(noise_ratio)])

    def profiled(log_ell, log_ratio):
        return nlml(np.exp(log_ell), np.exp(log_ratio))

    bracket = (np.log(grid[max(best - 1, 0)]), np.log(grid[min(best + 1, len(grid) - 1)]))
    best_u = minimize(profiled, best_u, best_val, bracket).x

    sp2 = float(np.exp(best_u[0]))
    params = KernelParams(
        signal_variance=sp2,
        lengthscale=float(np.exp(best_u[1])),
        noise_variance=float(np.exp(best_u[2])) * sp2,
    )
    return _build(x, y, params, sq)


def predict_mean(model: GPModel, queries) -> np.ndarray:
    """Posterior mean at the (n, d_in) queries, shape (n, d_out)."""
    q = _as_batch(queries, "queries", model.d_in)
    return _se_matrix(_sq_dists(q, model.inputs), model.params) @ model.alpha


def predict_variance(model: GPModel, queries) -> np.ndarray:
    """Posterior (latent-function) variance at the (n, d_in) queries, shared
    across output dimensions; clamped at >= 0. Shape (n,)."""
    q = _as_batch(queries, "queries", model.d_in)
    k_star = _se_matrix(_sq_dists(q, model.inputs), model.params)
    v = _solve(model.chol, k_star.T)
    var = model.params.signal_variance - np.einsum("nq,nq->q", k_star.T, v)
    return np.maximum(var, 0.0)


def _mean_derivative(model: GPModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Mean Jacobians of the GP at the (n, d_in) queries, shape
    (n, d_out, d_in), and the kernel gradient dk(q, x_i)/dq_b they contract
    against alpha, shape (n, N, d_in). No solve: the mean needs none."""
    q = _as_batch(queries, "queries", model.d_in)
    ell2 = model.params.lengthscale**2
    k_star = _se_matrix(_sq_dists(q, model.inputs), model.params)
    diff = q[:, None, :] - model.inputs[None, :, :]
    grad_k = -(diff / ell2) * k_star[:, :, None]  # (n, N, d_in)
    return np.einsum("qnb,na->qab", grad_k, model.alpha), grad_k


def predict_derivative(model: GPModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Posterior over the GP derivative at the (n, d_in) queries.

    Returns ``(jacobians, variances)`` where ``jacobians[q]`` is the
    (d_out, d_in) mean derivative and ``variances[q]`` the (d_in, d_in)
    covariance of the derivative (shared across output dimensions), with
    its diagonal clamped at >= 0.
    """
    jac, grad_k = _mean_derivative(model, queries)
    ell2 = model.params.lengthscale**2

    n_q, n_train, d_in = grad_k.shape
    flat = grad_k.transpose(1, 0, 2).reshape(n_train, n_q * d_in)
    solved = _solve(model.chol, flat).reshape(n_train, n_q, d_in)
    explained = np.einsum("qnb,nqc->qbc", grad_k, solved)

    prior = (model.params.signal_variance / ell2) * np.eye(d_in)
    var = prior[None, :, :] - explained
    idx = np.arange(d_in)
    var[:, idx, idx] = np.maximum(var[:, idx, idx], 0.0)
    return jac, var
