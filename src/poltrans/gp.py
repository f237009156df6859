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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from .types import _sq_dists

# Likelihood noise is kept at or above this fraction of the signal variance.
NOISE_FLOOR_RATIO = 1e-8
# Jitter escalates by x10 from the floor up to this fraction on Cholesky failure.
JITTER_MAX_RATIO = 1e-4
# Lengthscales, as multiples of the data's ell_center, at which fit_gp scores
# the profiled likelihood: 4 points per decade over its lengthscale bounds.
LENGTHSCALE_GRID = np.logspace(-3.0, 3.0, 25)


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
        if self.noise_variance < 0:
            raise ValueError("noise variance must be nonnegative")
        floor = NOISE_FLOOR_RATIO * self.signal_variance
        if self.noise_variance < floor:
            object.__setattr__(self, "noise_variance", floor)

    def to_dict(self) -> dict:
        return {
            "signal_variance": self.signal_variance,
            "lengthscale": self.lengthscale,
            "noise_variance": self.noise_variance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KernelParams":
        return cls(
            signal_variance=float(data["signal_variance"]),
            lengthscale=float(data["lengthscale"]),
            noise_variance=float(data["noise_variance"]),
        )


def _se_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    sq = _sq_dists(a, b)
    return params.signal_variance * np.exp(-sq / (2.0 * params.lengthscale**2))


def _check_finite(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise ValueError("array must not contain infs or NaNs")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the SPD matrix ``a``.

    Calls LAPACK ``dpotrf``, the routine behind
    ``scipy.linalg.cholesky(a, lower=True)``, so the factor is bitwise the
    same without that wrapper's per-call batching and dispatch. Raises
    ValueError on non-finite input and LinAlgError when ``a`` is not
    positive definite.
    """
    _check_finite(a)
    chol, info = dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return chol


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(chol chol^T) x = b`` with LAPACK ``dpotrs``; bitwise equal to
    ``scipy.linalg.cho_solve((chol, True), b)``."""
    _check_finite(chol, b)
    x, info = dpotrs(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _cho_inverse(chol: np.ndarray) -> np.ndarray:
    """Lower triangle of ``(chol chol^T)^-1`` from LAPACK ``dpotri``.

    Only the lower triangle is written; the upper one is copied from
    ``chol``, so for a factor from :func:`_cholesky` it is zero.
    """
    _check_finite(chol)
    inv, info = dpotri(chol, lower=1)
    if info > 0:
        raise ValueError(f"{info}-th diagonal entry of the factor is zero")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotri")
    return inv


@dataclass(frozen=True, eq=False)
class GPModel:
    """Fitted GP: training data, shared hyperparameters, and the cached
    Cholesky factorization products that make prediction O(N) per query."""

    inputs: np.ndarray
    outputs: np.ndarray
    params: KernelParams
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]

    @property
    def d_out(self) -> int:
        return self.outputs.shape[1]

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs.tolist(),
            "outputs": self.outputs.tolist(),
            "params": self.params.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GPModel":
        return build_gp(
            np.asarray(data["inputs"], dtype=float),
            np.asarray(data["outputs"], dtype=float),
            KernelParams.from_dict(data["params"]),
        )


def _as_2d(arr, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


def build_gp(inputs, outputs, params: KernelParams) -> GPModel:
    """Factorize the Gram matrix and cache the solve against the outputs.

    On Cholesky failure the diagonal jitter escalates by factors of 10 from
    the noise floor up to ``JITTER_MAX_RATIO * signal_variance``; if every
    attempt fails a RuntimeError("non-PD Gram matrix") is raised.
    """
    x = _as_2d(inputs, "inputs")
    y = _as_2d(outputs, "outputs")
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and outputs must have the same length")
    if x.shape[0] < 1:
        raise ValueError("at least one training point required")

    gram = _se_matrix(x, x, params)
    eye = np.eye(x.shape[0])
    base = gram + params.noise_variance * eye

    jitter = 0.0
    next_jitter = NOISE_FLOOR_RATIO * params.signal_variance
    while True:
        try:
            chol = _cholesky(base + jitter * eye)
            break
        except np.linalg.LinAlgError:
            if jitter >= JITTER_MAX_RATIO * params.signal_variance:
                raise RuntimeError("non-PD Gram matrix") from None
            jitter = next_jitter
            next_jitter *= 10.0

    alpha = _cho_solve(chol, y)
    x = x.copy()
    y = y.copy()
    x.setflags(write=False)
    y.setflags(write=False)
    return GPModel(inputs=x, outputs=y, params=params, chol=chol, alpha=alpha, jitter=jitter)


def log_marginal_likelihood(model: GPModel) -> float:
    """Log marginal likelihood summed over output dimensions (shared params)."""
    n, d_out = model.n, model.d_out
    data_fit = -0.5 * float(np.sum(model.outputs * model.alpha))
    log_det = float(np.sum(np.log(np.diag(model.chol))))
    return data_fit - d_out * log_det - 0.5 * n * d_out * np.log(2.0 * np.pi)


def _nlml_and_grad(u: np.ndarray, sq_dists: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative LML and gradient in coordinates
    u = (log sp2, log l, log(sn2 / sp2))."""
    n, d_out = y.shape
    sp2, ell, ratio = np.exp(u[0]), np.exp(u[1]), np.exp(u[2])
    # sp2 * (corr + ratio I), built in place.
    gram = np.exp(-sq_dists / (2.0 * ell**2))
    gram.flat[:: n + 1] += ratio
    gram *= sp2
    try:
        chol = _cholesky(gram)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros(3)
    alpha = _cho_solve(chol, y)
    y_alpha = float((y * alpha).sum())
    nlml = (
        0.5 * y_alpha
        + d_out * float(np.log(chol.diagonal()).sum())
        + 0.5 * n * d_out * np.log(2.0 * np.pi)
    )

    # dNLML/du_j = -0.5 sum(alpha^T dK_j alpha) + 0.5 d_out tr(K^-1 dK_j)
    # (Rasmussen & Williams 2006, eq. 5.9), with dK/d(log sp2) = K,
    # dK/d(log l) = sp2 corr * sq/l^2 and dK/d(log ratio) = sp2 ratio I.
    w_low = _cho_inverse(chol)
    # gram is sp2 corr off the diagonal and sq is 0 on it, so this is dK/d(log l).
    d_ell = gram * (sq_dists / ell**2)
    s = sp2 * ratio
    quad = np.array([y_alpha, ((d_ell @ alpha) * alpha).sum(), s * (alpha * alpha).sum()])
    # tr(K^-1 K) = n. d_ell is symmetric with a zero diagonal and w_low holds
    # the lower triangle of the symmetric K^-1, so tr(K^-1 d_ell) is twice
    # the sum over w_low * d_ell.
    trace = np.array([n, 2.0 * (w_low * d_ell).sum(), s * np.trace(w_low)])
    return nlml, 0.5 * (d_out * trace - quad)


def fit_gp(inputs, outputs, noise_ratio_cap: float = 1e2) -> GPModel:
    """Fit a (multi-output, shared-hyperparameter) GP to the data.

    The hyperparameters maximize the log marginal likelihood in log-space
    by one deterministic search. Its bounds follow the data: lengthscale
    in [1e-3, 1e3] x ell_center with ell_center = input diameter /
    sqrt(d_in), signal variance in [1e-6, 1e6] x output variance, and
    noise-to-signal ratio in [NOISE_FLOOR_RATIO, ``noise_ratio_cap``].

    With the noise ratio held at min(cap, 1e-6) and C = corr + ratio I,
    the signal variance has the closed-form optimum
    sp2 = sum(y * C^-1 y) / (n d_out) (Rasmussen & Williams 2006, 5.4),
    which leaves the lengthscale as the only free coordinate. The profiled
    negative LML is scored at ``LENGTHSCALE_GRID`` x ell_center (a grid
    point whose Cholesky fails scores +inf), and one L-BFGS-B run over all
    three coordinates polishes the best grid point; the grid point is kept
    if the polish ends worse. Raises RuntimeError("non-PD Gram matrix")
    when every grid point fails.
    """
    x = _as_2d(inputs, "inputs")
    y = _as_2d(outputs, "outputs")
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and outputs must have the same length")
    if not noise_ratio_cap >= NOISE_FLOOR_RATIO:
        raise ValueError("noise ratio cap must be at least NOISE_FLOOR_RATIO")

    sq = _sq_dists(x, x)
    # sqrt is monotone and correctly rounded, so this is pdist(x).max().
    diam = float(np.sqrt(sq.max())) if x.shape[0] > 1 else 0.0
    if diam <= 0.0:
        diam = 1.0
    ell_center = diam / np.sqrt(x.shape[1])

    out_var = float(np.mean(np.var(y, axis=0)))
    out_scale = float(np.mean(y**2))
    base = out_var if out_var > 0 else out_scale

    if base <= 0.0:
        # All-zero outputs: any hyperparameters give the zero posterior mean;
        # keep the prior variance negligible so predictions stay certain.
        tiny = KernelParams(
            signal_variance=1e-16 * max(diam, 1.0) ** 2,
            lengthscale=ell_center,
            noise_variance=0.0,
        )
        return build_gp(x, y, tiny)

    bounds = [
        (np.log(1e-6 * base), np.log(1e6 * base)),
        (np.log(1e-3 * ell_center), np.log(1e3 * ell_center)),
        (np.log(NOISE_FLOOR_RATIO), np.log(noise_ratio_cap)),
    ]
    ratio = min(noise_ratio_cap, 1e-6)
    n, d_out = y.shape

    # corr + ratio I for each grid lengthscale, written into one buffer:
    # (-sq/2) / l^2 == -sq / (2 l^2) bitwise, since halving and doubling are exact.
    neg_half_sq = -0.5 * sq
    corr = np.empty((n, n))
    corr_diag = corr.ravel()[:: n + 1]  # a view: corr is C-contiguous
    best_u, best_val = None, np.inf
    for ell in LENGTHSCALE_GRID * ell_center:
        np.divide(neg_half_sq, ell**2, out=corr)
        np.exp(corr, out=corr)
        corr_diag += ratio
        try:
            chol = _cholesky(corr)
        except np.linalg.LinAlgError:
            continue
        quad = float((y * _cho_solve(chol, y)).sum())
        log_sp2 = float(np.clip(np.log(quad / (n * d_out)), *bounds[0]))
        val = (
            0.5 * quad / np.exp(log_sp2)
            + 0.5 * n * d_out * log_sp2
            + d_out * float(np.log(chol.diagonal()).sum())
            + 0.5 * n * d_out * np.log(2.0 * np.pi)
        )
        if val < best_val:
            best_val, best_u = val, np.array([log_sp2, np.log(ell), np.log(ratio)])
    if best_u is None:
        raise RuntimeError("non-PD Gram matrix")

    res = minimize(
        _nlml_and_grad, best_u, args=(sq, y), jac=True, method="L-BFGS-B", bounds=bounds
    )
    if res.fun < best_val:
        best_u = res.x

    sp2 = float(np.exp(best_u[0]))
    params = KernelParams(
        signal_variance=sp2,
        lengthscale=float(np.exp(best_u[1])),
        noise_variance=float(np.exp(best_u[2])) * sp2,
    )
    return build_gp(x, y, params)


def _as_queries(model: GPModel, queries) -> tuple[np.ndarray, bool]:
    q = np.asarray(queries, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    if q.shape[1] != model.d_in:
        raise ValueError(f"queries must have dimension {model.d_in}")
    return q, single


def predict_mean(model: GPModel, queries) -> np.ndarray:
    """Posterior mean at the queries, shape (n, d_out) (or (d_out,) for a
    single query)."""
    q, single = _as_queries(model, queries)
    k_star = _se_matrix(q, model.inputs, model.params)
    mean = k_star @ model.alpha
    return mean[0] if single else mean


def predict_variance(model: GPModel, queries) -> np.ndarray:
    """Posterior (latent-function) variance at the queries, shared across
    output dimensions; clamped at >= 0. Shape (n,) or scalar."""
    q, single = _as_queries(model, queries)
    k_star = _se_matrix(q, model.inputs, model.params)
    v = _cho_solve(model.chol, k_star.T)
    var = model.params.signal_variance - np.einsum("nq,nq->q", k_star.T, v)
    var = np.maximum(var, 0.0)
    return float(var[0]) if single else var


def predict_derivative(model: GPModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Posterior over the GP derivative at the queries.

    Returns ``(jacobians, variances)`` where ``jacobians[q]`` is the
    (d_out, d_in) mean derivative and ``variances[q]`` the (d_in, d_in)
    covariance of the derivative (shared across output dimensions), with
    its diagonal clamped at >= 0. For a single query the leading axis is
    dropped.
    """
    q, single = _as_queries(model, queries)
    ell2 = model.params.lengthscale**2
    k_star = _se_matrix(q, model.inputs, model.params)
    diff = q[:, None, :] - model.inputs[None, :, :]
    grad_k = -(diff / ell2) * k_star[:, :, None]  # (n, N, d_in)

    jac = np.einsum("qnb,na->qab", grad_k, model.alpha)

    n_q, n_train, d_in = grad_k.shape
    flat = grad_k.transpose(1, 0, 2).reshape(n_train, n_q * d_in)
    solved = _cho_solve(model.chol, flat).reshape(n_train, n_q, d_in)
    explained = np.einsum("qnb,nqc->qbc", grad_k, solved)

    prior = (model.params.signal_variance / ell2) * np.eye(d_in)
    var = prior[None, :, :] - explained
    idx = np.arange(d_in)
    var[:, idx, idx] = np.maximum(var[:, idx, idx], 0.0)

    if single:
        return jac[0], var[0]
    return jac, var
