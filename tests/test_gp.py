"""GP regression against closed forms and finite-difference oracles."""

import importlib
import pkgutil
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import _decomp_cholesky
from scipy.optimize import minimize as scipy_minimize
from scipy.spatial.distance import cdist, pdist

import poltrans
from conftest import (
    default_bench_tasks,
    dense_nlml_and_grad,
    dense_profiled_nlml,
    fit_gp_bounds,
    kernel_se,
    profiled_grid_start,
    two_phase_minimize,
)
from poltrans import baselines, cli, gp, transport
from poltrans.gp import (
    LENGTHSCALE_GRID,
    NOISE_FLOOR_RATIO,
    NOISE_RATIO_MAX,
    KernelParams,
    build_gp,
    fit_gp,
    log_marginal_likelihood,
    predict_derivative,
    predict_mean,
    predict_variance,
)
from poltrans.scenarios import SURFACE_PROFILES, make_surface_scenario
from poltrans.transport import fit_transport

finite_coords = st.floats(-50.0, 50.0, allow_nan=False)


def smooth_data(n, d_out, seed=0, noise=0.01):
    """n points in the unit square with up to 3 smooth outputs, plus Gaussian
    noise of standard deviation ``noise``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, 2))
    y = np.stack(
        [np.sin(3.0 * x[:, 0]) + x[:, 1], np.cos(2.0 * x[:, 1]), x[:, 0] * x[:, 1]], axis=1
    )[:, :d_out]
    return x, y + noise * rng.standard_normal((n, d_out))


def libm_pow_span_data():
    """4 points whose span, and so the fit's ell_center, is exactly
    1.2412109375. A NumPy scalar's ** 2 is libm pow, which is not always
    the correctly rounded square: at the 6th grid lengthscale of this span
    the two differ in the last bit, and so does that grid point's score.
    Of the spans k / 1024 in [1, 2), this is the one where the score moves."""
    span = 1.2412109375
    x = span * np.array([[0.0], [0.3], [0.55], [1.0]])
    return x, np.sin(3.0 * x / span) + np.array([[0.1], [0.0], [-0.2], [0.05]])


def white_noise_data():
    """50 points in the unit square with white-noise outputs, on which the
    grid's two lowest lengthscales score exactly alike and best."""
    rng = np.random.default_rng(1)
    return rng.uniform(0.0, 1.0, (50, 2)), rng.standard_normal((50, 1))


def record_fit_calls(monkeypatch) -> list:
    """The list that the (inputs, outputs, noise_ratio) of every later
    fit_gp call through the package's modules is appended to."""
    fits = []
    real_fit = gp.fit_gp

    def recorded_fit(inputs, outputs, noise_ratio=NOISE_RATIO_MAX):
        fits.append((inputs, outputs, noise_ratio))
        return real_fit(inputs, outputs, noise_ratio)

    for module in (gp, transport, baselines):
        monkeypatch.setattr(module, "fit_gp", recorded_fit)
    return fits


def make_random_model(seed, n=12, d_in=2, d_out=2, noise=1e-4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, d_in))
    y = np.stack(
        [np.sin(2.0 * x[:, 0]) + 0.3 * x[:, -1], np.cos(1.5 * x[:, 0])][:d_out],
        axis=1,
    )
    return build_gp(x, y, KernelParams(1.0, 0.8, noise))


class TestClosedForms:
    def test_single_datum_posterior(self):
        """One observation y=1 at x=0 with unit signal and noise 0.1 has
        posterior mean 1/1.1 and latent variance 1 - 1/1.1 at the datum."""
        model = build_gp([[0.0]], [[1.0]], KernelParams(1.0, 1.0, 0.1))
        assert predict_mean(model, [0.0])[0] == pytest.approx(1.0 / 1.1, abs=1e-12)
        assert predict_variance(model, [0.0]) == pytest.approx(1.0 - 1.0 / 1.1, abs=1e-12)

    def test_single_datum_far_query_reverts_to_prior(self):
        model = build_gp([[0.0]], [[1.0]], KernelParams(1.0, 1.0, 0.1))
        assert abs(predict_mean(model, [80.0])[0]) < 1e-12
        assert predict_variance(model, [80.0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_data_closed_form(self):
        """Hand-solved 2x2 system: symmetric data about the origin."""
        params = KernelParams(1.0, 1.0, 0.5)
        model = build_gp([[-1.0], [1.0]], [[1.0], [-1.0]], params)
        r = np.exp(-2.0)  # k(-1, 1)
        # alpha solves [[1.5, r], [r, 1.5]] alpha = (1, -1)
        a = 1.0 / (1.5 - r)
        k0 = np.exp(-0.5)
        assert predict_mean(model, [0.0])[0] == pytest.approx(k0 * a - k0 * a, abs=1e-12)
        assert predict_mean(model, [-1.0])[0] == pytest.approx((1.0 - r) * a, abs=1e-12)


class TestInterpolation:
    def test_noise_floor_interpolates_training_data(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0.0, 3.0, 7)[:, None]
        y = np.stack([np.sin(x[:, 0]), np.cos(x[:, 0])], axis=1)
        model = build_gp(x, y, KernelParams(1.0, 1.0, 0.0))
        assert_allclose(predict_mean(model, x), y, atol=1e-5)
        assert np.all(predict_variance(model, x) < 1e-5)

    def test_far_field_reverts_to_prior_at_thirty_lengthscales(self):
        model = make_random_model(1)
        sp2 = model.params.signal_variance
        far = np.array([[30.0 * model.params.lengthscale, 0.0]]) + 1.0
        assert np.all(np.abs(predict_mean(model, far)) <= 1e-6 * np.sqrt(sp2))
        assert predict_variance(model, far)[0] == pytest.approx(sp2, abs=1e-6 * sp2)


class TestDerivatives:
    def test_mean_derivative_matches_finite_differences(self):
        model = make_random_model(2)
        rng = np.random.default_rng(3)
        queries = rng.uniform(-1.2, 1.2, (6, 2))
        jac, _ = predict_derivative(model, queries)
        h = 1e-6
        for q, j in zip(queries[:, None], jac):  # one-row batches
            for b in range(2):
                e = np.zeros(2)
                e[b] = h
                fd = (predict_mean(model, q + e) - predict_mean(model, q - e))[0] / (2 * h)
                assert_allclose(j[:, b], fd, atol=1e-5)

    def test_derivative_variance_matches_kernel_differencing(self):
        """Rebuild the derivative posterior covariance from scratch by
        finite-differencing the kernel function itself."""
        model = make_random_model(4, n=9)
        params = model.params
        x = model.inputs
        gram = np.array([[kernel_se(a, b, params) for b in x] for a in x])
        gram += params.noise_variance * np.eye(len(x))

        rng = np.random.default_rng(5)
        h = 1e-5
        for q in rng.uniform(-1.0, 1.0, (4, 2)):
            cross = np.empty((2, len(x)))
            for b in range(2):
                e = np.zeros(2)
                e[b] = h
                for n_i, xn in enumerate(x):
                    cross[b, n_i] = (
                        kernel_se(q + e, xn, params) - kernel_se(q - e, xn, params)
                    ) / (2 * h)
            prior = np.empty((2, 2))
            for b in range(2):
                for c in range(2):
                    eb, ec = np.zeros(2), np.zeros(2)
                    eb[b], ec[c] = h, h
                    prior[b, c] = (
                        kernel_se(q + eb, q + ec, params)
                        - kernel_se(q + eb, q - ec, params)
                        - kernel_se(q - eb, q + ec, params)
                        + kernel_se(q - eb, q - ec, params)
                    ) / (4 * h * h)
            oracle = prior - cross @ np.linalg.solve(gram, cross.T)
            _, (var,) = predict_derivative(model, q[None])
            assert_allclose(var, oracle, atol=1e-5)

    def test_far_field_derivative_variance_is_prior(self):
        model = make_random_model(6)
        sp2, ell = model.params.signal_variance, model.params.lengthscale
        _, (var,) = predict_derivative(model, np.array([[50.0, 50.0]]))
        assert_allclose(var, (sp2 / ell**2) * np.eye(2), atol=1e-9)

    def test_variance_diagonal_never_negative(self):
        model = make_random_model(7)
        rng = np.random.default_rng(8)
        _, var = predict_derivative(model, rng.uniform(-1, 1, (50, 2)))
        assert np.all(var[:, [0, 1], [0, 1]] >= 0.0)


class TestHyperparameterFit:
    def test_optimization_improves_marginal_likelihood(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2.0, 2.0, (25, 1))
        y = np.sin(3.0 * x) + 0.05 * rng.standard_normal((25, 1))
        init = KernelParams(1.0, 2.0, 1e-2)
        fitted = fit_gp(x, y)
        assert log_marginal_likelihood(fitted) >= log_marginal_likelihood(
            build_gp(x, y, init)
        ) - 1e-9

    def test_fit_is_at_least_as_good_as_every_grid_point(self):
        """The polish never ends worse than the best profiled grid point:
        the fitted LML beats the LML at every grid lengthscale, with the
        noise ratio at its start value and the signal variance profiled."""
        rng = np.random.default_rng(14)
        x = rng.uniform(0.0, 1.0, (12, 2))
        y = np.sin(4.0 * x) + 0.01 * rng.standard_normal((12, 2))
        fitted = fit_gp(x, y)
        ell_center = pdist(x).max() / np.sqrt(2.0)
        sq = cdist(x, x, "sqeuclidean")
        best_grid = np.inf
        for ell in LENGTHSCALE_GRID * ell_center:
            corr = np.exp(-sq / (2.0 * ell**2)) + 1e-6 * np.eye(12)
            sp2 = np.sum(y * np.linalg.solve(corr, y)) / y.size
            nlml, _ = dense_nlml_and_grad(np.log([sp2, ell, 1e-6]), sq, y)
            best_grid = min(best_grid, nlml)
        p = fitted.params
        u = np.log([p.signal_variance, p.lengthscale, p.noise_variance / p.signal_variance])
        fitted_nlml, _ = dense_nlml_and_grad(u, sq, y)
        assert fitted_nlml <= best_grid * (1 + 1e-9) + 1e-9

    def test_every_grid_point_failing_is_a_runtime_error(self, monkeypatch):
        def no_factor(a, **kwargs):
            return a, 1  # LAPACK's "leading minor 1 is not positive definite"

        monkeypatch.setattr(gp, "dpotrf", no_factor)
        with pytest.raises(RuntimeError, match="non-PD Gram matrix"):
            fit_gp([[0.0], [1.0]], [[0.0], [1.0]])

    def test_fitted_parameters_respect_bounds(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.0, 1.0, (15, 2))
        y = rng.standard_normal((15, 2))
        model = fit_gp(x, y)
        ell_center = pdist(x).max() / np.sqrt(2.0)
        p = model.params
        assert 1e-3 * ell_center * 0.999 <= p.lengthscale <= 1e3 * ell_center * 1.001
        assert p.noise_variance <= 1e-6 * p.signal_variance * 1.001

    @pytest.mark.parametrize("ratio", [0.0, 0.5 * NOISE_FLOOR_RATIO, 2.0 * NOISE_RATIO_MAX, 1e2, np.nan])
    def test_noise_ratio_outside_its_range_is_rejected(self, ratio):
        with pytest.raises(ValueError, match="noise ratio must lie in"):
            fit_gp([[0.0], [1.0]], [[0.0], [1.0]], noise_ratio=ratio)

    def test_all_zero_outputs_yield_certain_zero_posterior(self):
        x = np.random.default_rng(11).uniform(-1, 1, (8, 2))
        model = fit_gp(x, np.zeros((8, 2)))
        grid = np.random.default_rng(12).uniform(-2, 2, (20, 2))
        assert np.all(np.abs(predict_mean(model, grid)) < 1e-9)
        assert np.all(predict_variance(model, grid) < 1e-9)

    def test_inputs_whose_squared_distances_overflow_are_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="input scale 1e\\+200 is too large"):
            fit_gp([[0.0], [1e200]], [[0.0], [1.0]])

    @pytest.mark.parametrize("spacing", [1e-160, 1e-170])
    def test_distinct_inputs_whose_squared_distances_underflow_are_rejected(self, spacing):
        """At 1e-160 the squared distances are subnormal and the grid would
        divide by an underflowed l^2; at 1e-170 they are 0 and the inputs
        would pass for coincident."""
        x = spacing * np.arange(3.0)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="input scale .* is too small"):
                fit_gp(x, [[0.0], [1.0], [2.0]])

    def test_identical_inputs_take_the_unit_scale(self):
        for x in ([[0.25]], [[0.25], [0.25]]):
            model = fit_gp(x, np.arange(len(x), dtype=float)[:, None] + 1.0)
            assert 1e-3 <= model.params.lengthscale <= 1e3

    def test_repeated_fits_are_identical(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (10, 1))
        y = np.sin(x)
        a = fit_gp(x, y)
        b = fit_gp(x, y)
        assert a.params == b.params

    @staticmethod
    def run_suite_fits(suite):
        for task in default_bench_tasks(suite):
            for method in task.methods:
                if method in ("gpt", "reshaped_kmp"):
                    cli.METHOD_TABLE[method].run(task)

    @staticmethod
    def run_small_and_awkward_sets(ratio):
        rng = np.random.default_rng(21)
        for n, d_out in ((12, 2), (60, 3), (2, 1), (1, 2)):
            gp.fit_gp(*smooth_data(n, d_out, seed=n, noise=0.1), noise_ratio=ratio)
        x = rng.uniform(0.0, 1.0, (6, 2))
        gp.fit_gp(np.vstack([x, x]), rng.standard_normal((12, 2)), noise_ratio=ratio)

    # Each group of fits, and how many of its fits run a polish. The flat
    # and tilt scenes' gpt residuals and reshaped_kmp displacement labels
    # are exact zeros, which search nothing.
    FIT_GROUPS = {
        "12": (lambda: gp.fit_gp(*smooth_data(12, 2)), 1),
        "200": (lambda: gp.fit_gp(*smooth_data(200, 2)), 1),
        "50": (
            lambda: [
                fit_transport(make_surface_scenario(profile, n_keypoints=50, seed=7).keypoints)
                for profile in SURFACE_PROFILES
            ],
            3,
        ),
        "surfaces": (lambda: TestHyperparameterFit.run_suite_fits("surfaces"), 30 - 12),
        "frames": (lambda: TestHyperparameterFit.run_suite_fits("frames"), 20),
        "sets-ratio-max": (
            lambda: TestHyperparameterFit.run_small_and_awkward_sets(NOISE_RATIO_MAX),
            5,
        ),
        "sets-ratio-floor": (
            lambda: TestHyperparameterFit.run_small_and_awkward_sets(NOISE_FLOOR_RATIO),
            5,
        ),
        "libm-pow-span": (lambda: gp.fit_gp(*libm_pow_span_data()), 1),
        "white-noise": (lambda: gp.fit_gp(*white_noise_data()), 1),
        "bent-200": (
            lambda: fit_transport(make_surface_scenario("step", n_keypoints=200, seed=7).keypoints),
            1,
        ),
    }

    @pytest.mark.parametrize("group", list(FIT_GROUPS))
    def test_polish_starts_from_the_reference_grid_optimum(self, group, monkeypatch):
        """Every fit of the group starts its polish from the best point of
        the dense oracle's grid (conftest.profiled_grid_start), bit for bit."""
        run, polished = self.FIT_GROUPS[group]
        fits, checked = record_fit_calls(monkeypatch), []
        real_minimize = gp.minimize

        def checked_minimize(fun, x0, *args, **kwargs):
            inputs, outputs, noise_ratio = fits[-1]
            x, y = (np.asarray(a, dtype=float).reshape(len(a), -1) for a in (inputs, outputs))
            assert np.array_equal(x0, profiled_grid_start(x, y, noise_ratio))
            checked.append(x0)
            return real_minimize(fun, x0, *args, **kwargs)

        monkeypatch.setattr(gp, "minimize", checked_minimize)
        run()
        assert len(checked) == polished

    @pytest.mark.parametrize("n", [50, 200])
    def test_a_fit_holds_one_c_matrix_at_every_size(self, n):
        """The grid and the polish score every lengthscale in one n x n C,
        so the fit's traced peak stays below 10 n x n matrices: the
        distances, their halves, one C, build_gp's Gram matrix and
        temporaries."""
        x, y = smooth_data(n, 2)
        fit_gp(x, y)
        tracemalloc.start()
        try:
            fit_gp(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * n * n * 8


# fit_gp's grid before it went to 2 points per decade: 4 per decade over the
# same bounds. An oracle only.
DENSE_GRID = np.logspace(-3.0, 3.0, 25)


def cli_fit_block(seed: int = 2) -> list:
    """One block of the surface scenarios the cli_fit benchmark draws from
    ``seed``: per profile, three at 12 keypoints, one at 50 and one at 200."""
    rng = np.random.default_rng(seed)
    return [
        make_surface_scenario(profile, n_keypoints=n, seed=int(rng.integers(2**31)))
        for profile in SURFACE_PROFILES
        for n, copies in ((12, 3), (50, 1), (200, 1))
        for _ in range(copies)
    ]


class TestGridDensity:
    """No fit's likelihood is lower than the denser grid's search reaches."""

    @staticmethod
    def lml_and_dense_grid_lml(fit, monkeypatch) -> tuple[float, float]:
        lml = log_marginal_likelihood(fit_gp(*fit))
        with monkeypatch.context() as patch:
            patch.setattr(gp, "LENGTHSCALE_GRID", DENSE_GRID)
            return lml, log_marginal_likelihood(fit_gp(*fit))

    FIT_GROUPS = {
        # gpt's and reshaped_kmp's fits, 15 each
        "surfaces": (lambda: TestHyperparameterFit.run_suite_fits("surfaces"), 30),
        "frames": (lambda: TestHyperparameterFit.run_suite_fits("frames"), 20),
        # its 200-keypoint sine fit ends higher (0.08-0.37 nats over eight corpora)
        "cli-fit-block": (lambda: [fit_transport(s.keypoints) for s in cli_fit_block()], 25),
    }

    @pytest.mark.parametrize("group", list(FIT_GROUPS))
    def test_no_fit_ends_below_the_dense_grid_search(self, group, monkeypatch):
        run, count = self.FIT_GROUPS[group]
        fits = record_fit_calls(monkeypatch)
        run()
        assert len(fits) == count
        for i, fit in enumerate(fits):
            lml, ref = self.lml_and_dense_grid_lml(fit, monkeypatch)
            assert lml >= ref - 1e-9 * abs(ref), i

    def test_the_wider_bracket_lifts_the_sine_0_reshaped_kmp_fit(self, monkeypatch):
        """The half-decade bracket of the dense grid stops short of this
        fit's optimum; the one-decade bracket reaches it (+1.49 nats)."""
        (task,) = [task for task in default_bench_tasks("surfaces") if task.scenario.name == "surface-sine-0"]
        fits = record_fit_calls(monkeypatch)
        cli.METHOD_TABLE["reshaped_kmp"].run(task)
        (fit,) = fits
        lml, ref = self.lml_and_dense_grid_lml(fit, monkeypatch)
        assert lml - ref > 1.0


def record_scores(monkeypatch) -> tuple[list, list]:
    """Two lists: the noise ratio of every later ``_profiled_nlml`` score,
    and, for every later ``_brent`` search, how many scores came before it."""
    ratios, searches = [], []
    real_nlml, real_brent = gp._profiled_nlml, gp._brent

    def recorded_nlml(*args):
        nlml = real_nlml(*args)

        def recorded(ell, ratio):
            ratios.append(ratio)
            return nlml(ell, ratio)

        return recorded

    def recorded_brent(*args):
        searches.append(len(ratios))
        return real_brent(*args)

    monkeypatch.setattr(gp, "_profiled_nlml", recorded_nlml)
    monkeypatch.setattr(gp, "_brent", recorded_brent)
    return ratios, searches


def search_ratios(ratios, searches) -> list:
    """The noise ratio each recorded search ran at: that of its first step."""
    return [ratios[start] for start in searches]


class TestSearchOrder:
    """``gp.minimize`` searches first the ratio that scores better at the
    grid optimum, and the other one only when it wins after that search."""

    @staticmethod
    def fit_with(minimize, fit, monkeypatch) -> tuple[float, float, int]:
        """The LML, noise ratio and score count of ``fit_gp(*fit)`` polished
        by ``minimize``."""
        with monkeypatch.context() as patch:
            patch.setattr(gp, "minimize", minimize)
            ratios, _ = record_scores(patch)
            model = fit_gp(*fit)
        return log_marginal_likelihood(model), model.params.noise_variance / model.params.signal_variance, len(ratios)

    @pytest.mark.parametrize("group", list(TestGridDensity.FIT_GROUPS))
    def test_no_fit_ends_below_the_two_phase_search(self, group, monkeypatch):
        """Against the search that always searched the grid's ratio first
        (conftest's ``two_phase_minimize``), every fit ends at the same ratio
        and no lower, with no more scores, and at most 85% of them on a
        cli_fit block."""
        run, count = TestGridDensity.FIT_GROUPS[group]
        fits = record_fit_calls(monkeypatch)
        run()
        assert len(fits) == count
        scores = oracle_scores = 0
        for i, fit in enumerate(fits):
            lml, ratio, n = self.fit_with(gp.minimize, fit, monkeypatch)
            ref, ref_ratio, n_ref = self.fit_with(two_phase_minimize, fit, monkeypatch)
            assert lml >= ref - 1e-9 * abs(ref), i
            assert ratio == pytest.approx(ref_ratio, rel=1e-6), i
            scores, oracle_scores = scores + n, oracle_scores + n_ref
        assert scores <= (0.85 if group == "cli-fit-block" else 1.0) * oracle_scores

    def test_a_noise_free_fit_makes_one_search_at_the_floor(self, monkeypatch):
        ratios, searches = record_scores(monkeypatch)
        model = fit_gp(*smooth_data(200, 2, noise=0.0))
        assert search_ratios(ratios, searches) == pytest.approx([NOISE_FLOOR_RATIO])
        assert model.params.noise_variance == pytest.approx(NOISE_FLOOR_RATIO * model.params.signal_variance)

    @pytest.mark.parametrize(
        ("scene", "lml"), [("surface-sine-0", 74.1725), ("surface-composite-0", 58.7938), ("surface-composite-2", 60.0930)]
    )
    def test_the_capped_ratio_is_searched_when_it_wins_after_the_floor_search(self, scene, lml, monkeypatch):
        """The floor scores better at these reshaped_kmp fits' grid point,
        and the capped ratio at the lengthscale the floor search finds."""
        (task,) = [task for task in default_bench_tasks("surfaces") if task.scenario.name == scene]
        fits = record_fit_calls(monkeypatch)
        cli.METHOD_TABLE["reshaped_kmp"].run(task)
        (fit,) = fits
        ratios, searches = record_scores(monkeypatch)
        model = fit_gp(*fit)
        assert search_ratios(ratios, searches) == pytest.approx([NOISE_FLOOR_RATIO, NOISE_RATIO_MAX])
        assert model.params.noise_variance == pytest.approx(NOISE_RATIO_MAX * model.params.signal_variance)
        assert log_marginal_likelihood(model) == pytest.approx(lml, abs=1e-4)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_200_keypoint_sine_fit_ends_in_the_best_floor_minimum(self, seed):
        """The floor-ratio likelihood of this gpt fit has local optima near
        l = 0.179, 0.212 and 0.248 (LML 4619.5, 4622.1 and 4622.4 at seed
        0); the floor search, which starts from the grid point, ends in the
        last and best."""
        tmap = fit_transport(make_surface_scenario("sine", n_keypoints=200, seed=seed).keypoints)
        params = tmap.residual.params
        assert params.noise_variance == pytest.approx(NOISE_FLOOR_RATIO * params.signal_variance)
        assert 0.24 < params.lengthscale < 0.26
        assert log_marginal_likelihood(tmap.residual) >= 4622.3


class TestObjective:
    """``gp._profiled_nlml``, the objective of the grid and the polish,
    against the dense formula and central differences."""

    # Lengthscales at which each size's Gram matrix is conditioned well
    # enough for central differences.
    ELL = {1: 0.3, 2: 0.3, 12: 0.2, 200: 0.05}

    @pytest.mark.parametrize("ratio", [NOISE_FLOOR_RATIO, 1e-6])
    @pytest.mark.parametrize("d_out", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 12, 200])
    def test_matches_dense_oracle_and_finite_differences(self, n, d_out, ratio):
        x, y = smooth_data(n, d_out)
        sq = gp._sq_dists(x, x)
        (log_sp2_bounds, log_ell_bounds, _), _ = fit_gp_bounds(x, y)
        profiled = gp._profiled_nlml(-0.5 * sq, y, log_sp2_bounds)

        # The grid's floor lengthscale puts subnormal entries into C, where
        # factoring C in place differs most from factoring a copy.
        for ell in (0.05, 0.3, self.ELL[n], np.exp(log_ell_bounds[0])):
            nlml, log_sp2 = profiled(ell, ratio)
            assert (nlml, log_sp2) == dense_profiled_nlml(sq, y, ell, ratio, log_sp2_bounds)
            # ... which is the full NLML at the profiled signal variance, up to
            # round-off that grows with cond(C), at most about 1 / ratio
            dense, _ = dense_nlml_and_grad(np.array([log_sp2, np.log(ell), np.log(ratio)]), sq, y)
            assert nlml == pytest.approx(dense, rel=100 * np.finfo(float).eps / ratio, abs=1e-12)

        # At the profiled sp2 the full NLML is flat in log sp2, so the profiled
        # objective's slope in (log l, log ratio) is the full gradient's there.
        ell = self.ELL[n]
        nlml, log_sp2 = profiled(ell, ratio)
        assert log_sp2_bounds[0] < log_sp2 < log_sp2_bounds[1]
        _, grad = dense_nlml_and_grad(np.array([log_sp2, np.log(ell), np.log(ratio)]), sq, y)
        h = 1e-4
        fd = np.array(
            [
                0.0,
                (profiled(ell * np.exp(h), ratio)[0] - profiled(ell * np.exp(-h), ratio)[0]) / (2 * h),
                (profiled(ell, ratio * np.exp(h))[0] - profiled(ell, ratio * np.exp(-h))[0]) / (2 * h),
            ]
        )
        # Central differences resolve no slope below the rounding of two
        # evaluations over the step, which the floor ratio's slope can be.
        assert_allclose(grad, fd, rtol=1e-5, atol=100 * np.finfo(float).eps * abs(nlml) / h)

    @pytest.mark.parametrize("ratio", [NOISE_FLOOR_RATIO, NOISE_RATIO_MAX])
    @pytest.mark.parametrize("n", [12, 50, 200])
    def test_the_exponent_floor_changes_no_score(self, n, ratio):
        """From the grid's lowest lengthscale up through the range where C's
        entries would be subnormal or zero, the objective floors the kernel
        exponent; every score stays == to the dense oracle's unfloored one."""
        x, y = smooth_data(n, 2)
        sq = gp._sq_dists(x, x)
        (log_sp2_bounds, _, _), ell_center = fit_gp_bounds(x, y)
        ells = np.geomspace(1e-3, 0.1, 21) * ell_center
        lowest = [-0.5 * sq.max() / ell**2 for ell in ells]
        # The sweep runs from exponents that underflow past the smallest
        # subnormal to ones that need no floor.
        assert min(lowest) < np.log(np.finfo(float).smallest_subnormal)
        assert max(lowest) > gp._EXPONENT_FLOOR
        profiled = gp._profiled_nlml(-0.5 * sq, y, log_sp2_bounds)
        for ell in ells:
            assert profiled(ell, ratio) == dense_profiled_nlml(sq, y, ell, ratio, log_sp2_bounds)

    def test_white_noise_ties_at_the_low_end_of_the_grid(self):
        """On white-noise outputs C is (1 + ratio) I at the shortest grid
        lengthscales, up to entries the floor raises and the scores absorb:
        those grid points tie exactly, as in the dense oracle, and the tie
        goes to the lowest one."""
        x, y = white_noise_data()
        sq = gp._sq_dists(x, x)
        (log_sp2_bounds, _, _), ell_center = fit_gp_bounds(x, y)
        profiled = gp._profiled_nlml(-0.5 * sq, y, log_sp2_bounds)
        scores = []
        for ell in LENGTHSCALE_GRID * ell_center:
            score = profiled(ell, NOISE_RATIO_MAX)
            assert score == dense_profiled_nlml(sq, y, ell, NOISE_RATIO_MAX, log_sp2_bounds)
            scores.append(score[0])
        assert scores[0] == scores[1] == min(scores)
        assert profiled_grid_start(x, y)[1] == np.log(LENGTHSCALE_GRID[0] * ell_center)

    def test_squares_each_grid_lengthscale_as_the_dense_oracle_does(self):
        """The oracle squares each l with libm pow, as the objective must:
        on these data the 6th grid point's score depends on it."""
        x, y = libm_pow_span_data()
        sq = gp._sq_dists(x, x)
        (log_sp2_bounds, _, _), ell_center = fit_gp_bounds(x, y)
        grid = LENGTHSCALE_GRID * ell_center
        ell = grid[5]
        assert ell**2 != ell * ell

        def factor_terms(ell_sq):
            chol = scipy.linalg.cholesky(np.exp(-sq / (2.0 * ell_sq)) + 1e-6 * np.eye(len(x)), lower=True)
            return (y * scipy.linalg.cho_solve((chol, True), y)).sum(), np.log(chol.diagonal()).sum()

        # Both terms of the score move with the last bit of l^2.
        assert all(np.not_equal(factor_terms(ell**2), factor_terms(ell * ell)))
        profiled = gp._profiled_nlml(-0.5 * sq, y, log_sp2_bounds)
        for ell in grid:
            assert profiled(ell, 1e-6) == dense_profiled_nlml(sq, y, ell, 1e-6, log_sp2_bounds)

    def test_failed_factorization_scores_a_flat_wall(self):
        """A C that fails to factor scores inf, so neither the grid nor the
        polish can pick it; the dense oracles agree."""
        x, y = smooth_data(12, 2)
        sq = gp._sq_dists(x, x)
        assert gp._factor_in_place(np.exp(-sq / (2.0 * 100.0**2)) + 1e-16 * np.eye(12)) is None
        nlml, log_sp2 = gp._profiled_nlml(-0.5 * sq, y, (-50.0, 50.0))(100.0, 1e-16)
        assert nlml == np.inf and np.isnan(log_sp2)
        ref_nlml, ref_log_sp2 = dense_profiled_nlml(sq, y, 100.0, 1e-16, (-50.0, 50.0))
        assert ref_nlml == np.inf and np.isnan(ref_log_sp2)
        assert dense_nlml_and_grad(np.log([1.0, 100.0, 1e-16]), sq, y)[0] == 1e25

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_c_holding_a_nan_or_an_inf_scores_a_flat_wall(self, bad):
        """OpenBLAS's dpotrf reports success on such a C; the step reads the
        failure off its log determinant, with no RuntimeWarning (pytest runs
        with warnings as errors), and its buffer scores the next C as the
        dense oracle does."""
        x, y = smooth_data(12, 2)
        sq = gp._sq_dists(x, x)
        neg_half_sq = -0.5 * sq
        neg_half_sq[3, 3] = bad  # C[3, 3] = exp(bad / l^2) + ratio
        objective = gp._profiled_nlml(neg_half_sq, y, (-50.0, 50.0))
        nlml, log_sp2 = objective(0.3, 1e-6)
        assert nlml == np.inf and np.isnan(log_sp2)
        neg_half_sq[3, 3] = 0.0
        assert objective(0.3, 1e-6) == dense_profiled_nlml(sq, y, 0.3, 1e-6, (-50.0, 50.0))


class TestPolish:
    """``gp.minimize``, the Brent line search over the profiled likelihood."""

    @pytest.mark.parametrize(("ratio", "noise"), [(1e-6, 0.01), (NOISE_FLOOR_RATIO, 0.0)])
    @pytest.mark.parametrize("d_out", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 12, 50, 200])
    def test_reaches_the_lbfgsb_optimum(self, n, d_out, ratio, noise):
        """SciPy's L-BFGS-B over all three coordinates, from the same grid
        start, is the oracle; the polish must do at least as well.

        The floor ratio is the interpolation regime, so it gets noise-free
        data. Noisy data pinned there push l to several times the data's
        diameter; there the two ends' LMLs differ by round-off of up to 3e-8
        relative, though the polish's profiled objective is the lower one."""
        x, y = smooth_data(n, d_out, seed=n + d_out, noise=noise)
        bounds, _ = fit_gp_bounds(x, y, ratio)
        oracle = scipy_minimize(
            dense_nlml_and_grad,
            profiled_grid_start(x, y, ratio),
            args=(gp._sq_dists(x, x), y),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
        )
        sp2 = np.exp(oracle.x[0])
        oracle_params = KernelParams(sp2, np.exp(oracle.x[1]), np.exp(oracle.x[2]) * sp2)
        oracle_lml = log_marginal_likelihood(build_gp(x, y, oracle_params))
        lml = log_marginal_likelihood(fit_gp(x, y, noise_ratio=ratio))
        assert lml >= oracle_lml - 1e-9 * abs(oracle_lml)

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("n", [12, 50])
    def test_nfev_counts_objective_calls(self, n, noise, monkeypatch):
        rng = np.random.default_rng(n)
        x = rng.uniform(0.0, 1.0, (n, 2))
        y = np.sin(3.0 * x) + noise * rng.standard_normal((n, 2))
        results, calls = [], []
        real_minimize = gp.minimize

        def counted(fun, *args, **kwargs):
            def fun_counted(*a):
                calls.append(a)
                return fun(*a)

            results.append(real_minimize(fun_counted, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(gp, "minimize", counted)
        fit_gp(x, y)
        assert len(results) == 1
        assert results[0].nfev == len(calls) > 0

    def test_finds_a_parabola_minimum_and_falls_to_the_floor_ratio(self):
        floor = np.log(NOISE_FLOOR_RATIO)
        calls = []

        def fun(log_ell, log_ratio):
            calls.append((log_ell, log_ratio))
            return (log_ell - 0.3) ** 2 + (0.0 if log_ratio == floor else 1.0), -1.0

        x0 = np.array([0.0, 0.0, np.log(1e-6)])
        res = gp.minimize(fun, x0, 1.09, (-1.0, 1.0))
        assert res.x[1] == pytest.approx(0.3, abs=1e-5)
        assert res.x[0] == -1.0 and res.x[2] == floor
        assert res.fun == pytest.approx(0.0, abs=1e-10)
        assert res.nfev == len(calls)
        assert {r for _, r in calls} == {x0[2], floor}

    def test_steps_back_from_failed_factorizations(self):
        """A lengthscale whose Gram matrix fails to factor scores inf; the
        search treats it as a wall and still finds the minimum beside it."""

        def fun(log_ell, log_ratio):
            return (np.inf, np.nan) if log_ell > 0.5 else ((log_ell - 0.45) ** 2, 0.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = gp.minimize(fun, np.array([0.0, 0.0, np.log(NOISE_FLOOR_RATIO)]), 0.45**2, (-1.0, 1.0))
        assert res.x[1] == pytest.approx(0.45, abs=1e-5)

    def test_keeps_the_start_when_nothing_beats_it(self):
        x0 = np.array([1.0, 0.0, np.log(NOISE_FLOOR_RATIO)])
        res = gp.minimize(lambda log_ell, log_ratio: (1.0, 5.0), x0, 1.0, (-1.0, 1.0))
        assert np.array_equal(res.x, x0) and res.fun == 1.0 and res.nfev > 0


class TestRobustness:
    def test_noise_clamped_to_structural_floor(self):
        p = KernelParams(2.0, 1.0, 0.0)
        assert p.noise_variance == 2.0 * NOISE_FLOOR_RATIO

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, 0.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            KernelParams(np.nan, 1.0)

    def test_duplicate_inputs_survive_on_the_noise_floor(self):
        # exact duplicates are regularized by the structural noise floor
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        y = np.array([[1.0], [1.0], [0.0]])
        model = build_gp(x, y, KernelParams(1.0, 1.0, 0.0))
        assert np.isfinite(predict_mean(model, [[0.5, 0.0]])).all()

    @pytest.mark.parametrize("ell_scale", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("layout", ["uniform", "duplicated", "collinear"])
    def test_gram_matrix_factors_at_the_noise_floor(self, layout, ell_scale):
        """The floor sn2 >= NOISE_FLOOR_RATIO sp2 bounds K + sn2 I's smallest
        eigenvalue away from 0, so it factors as built, even where K itself
        is singular: tenfold duplicates, collinear points, and a lengthscale
        that makes K all but a matrix of ones. The factor is SciPy's, bit
        for bit, upper triangle included."""
        rng = np.random.default_rng(30)
        if layout == "uniform":
            x = rng.uniform(-1.0, 1.0, (500, 2))
        elif layout == "duplicated":
            x = np.repeat(rng.uniform(-1.0, 1.0, (50, 2)), 10, axis=0)
        else:
            x = np.linspace(0.0, 1.0, 500)[:, None] * np.array([[3.0, -2.0]])
        y = np.sin(3.0 * x)
        ell_center = pdist(x).max() / np.sqrt(2.0)
        params = KernelParams(1.0, ell_scale * ell_center, 0.0)
        assert params.noise_variance == NOISE_FLOOR_RATIO
        model = build_gp(x, y, params)
        gram = np.exp(-cdist(x, x, "sqeuclidean") / (2.0 * params.lengthscale**2))
        ref = scipy.linalg.cholesky(gram + params.noise_variance * np.eye(len(x)), lower=True)
        assert np.array_equal(model.chol, ref)

    def test_unrepairable_gram_matrix_raises(self, monkeypatch):
        def no_factor(a, **kwargs):
            return a, 1  # LAPACK's "leading minor 1 is not positive definite"

        monkeypatch.setattr(gp, "dpotrf", no_factor)
        with pytest.raises(RuntimeError, match="non-PD Gram matrix"):
            build_gp([[0.0], [1.0]], [[0.0], [1.0]], KernelParams(1.0, 1.0, 0.0))

    def test_gram_matrix_that_is_not_finite_raises(self):
        """Signal and noise variances whose sum overflows would put inf on
        the diagonal of K + sn2 I; the parameters are rejected, naming both,
        before any Gram matrix is built. The noise floor counts in the sum."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(ValueError, match=r"signal variance 1e\+308 and noise variance 1e\+308 sum"):
                KernelParams(1e308, 1.0, 1e308)
            with pytest.raises(ValueError, match="sum past the largest float"):
                KernelParams(np.float64(1e308), 1.0, np.float64(1e308))
            with pytest.raises(ValueError, match="sum past the largest float"):
                KernelParams(np.finfo(float).max, 1.0)
            params = KernelParams(1e308, 1.0, 7e307)
        assert np.isfinite(build_gp([[0.0], [1.0]], [[0.0], [1.0]], params).chol).all()

    @pytest.mark.parametrize("lengthscale", [1e160, 1.4e154, 1e-170, 1e-160])
    def test_lengthscale_whose_square_is_not_normal_is_rejected(self, lengthscale):
        """The kernel divides by l^2. A square that overflows raised
        OverflowError in the Gram matrix, one that underflows to 0 put 0/0 on
        its diagonal; a subnormal square (1e-160) is rejected with them."""
        with pytest.raises(ValueError, match="lengthscale .* is out of range"):
            KernelParams(1.0, lengthscale)
        for edge in (np.sqrt(np.finfo(float).tiny) * 1.0000001, np.sqrt(np.finfo(float).max) * 0.9999999):
            assert KernelParams(1.0, edge).lengthscale == edge

    def test_non_finite_training_data_is_named(self):
        with pytest.raises(ValueError, match="inputs must be finite"):
            fit_gp([[0.0], [np.nan]], [[0.0], [1.0]])
        with pytest.raises(ValueError, match="outputs must be finite"):
            fit_gp([[0.0], [1.0]], [[0.0], [np.inf]])

    def test_input_output_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            build_gp([[0.0], [1.0]], [[0.0]], KernelParams(1.0, 1.0))
        with pytest.raises(ValueError, match="same length"):
            fit_gp([[0.0], [1.0]], [[0.0]])

    def test_a_model_needs_a_training_point(self):
        with pytest.raises(ValueError, match="at least one training point required"):
            build_gp(np.empty((0, 1)), np.empty((0, 2)), KernelParams(1.0, 1.0))

    def test_a_fit_needs_a_training_point(self):
        """Zero points used to reach the squared-distance maximum and raise
        NumPy's zero-size reduction error."""
        with pytest.raises(ValueError, match="at least one training point required"):
            fit_gp(np.zeros((0, 2)), np.zeros((0, 2)))


class TestLapackSeam:
    """gp factorizes with ``_factor_in_place`` and solves with ``_solve``,
    LAPACK called directly; every result must be bitwise equal to the SciPy
    wrappers they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 12, 50, 200])
    def test_factor_and_solve_equal_scipy_wrappers(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1.0, 1.0, (n, 2))
        gram = np.exp(-cdist(x, x, "sqeuclidean") / 0.5) + 1e-6 * np.eye(n)
        ref = scipy.linalg.cholesky(gram, lower=True)
        chol, log_det = gp._factor_in_place(gram)
        assert np.array_equal(chol, ref)
        assert log_det == float(np.log(ref.diagonal()).sum())
        assert np.shares_memory(chol, gram)  # factored in the matrix's own buffer
        rhs = [rng.standard_normal((n, k)) for k in sorted({1, 2, n})] + [np.eye(n)]
        for b in rhs:
            assert np.array_equal(gp._solve(chol, b), scipy.linalg.cho_solve((ref, True), b))

    def test_non_positive_definite_matrix_factors_to_none(self):
        """An indefinite matrix gives None, and so does one holding a NaN or
        an inf, on which OpenBLAS's dpotrf reports success."""
        for a in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
            assert gp._factor_in_place(np.array(a)) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_value_error(self, bad):
        """Non-finite values stop where data enter the GP: the training set
        and the queries. What reaches the factor and the solves is finite."""
        with pytest.raises(ValueError, match="inputs must be finite"):
            build_gp([[0.0], [bad]], [[0.0], [1.0]], KernelParams(1.0, 1.0))
        with pytest.raises(ValueError, match="outputs must be finite"):
            build_gp([[0.0], [1.0]], [[bad], [1.0]], KernelParams(1.0, 1.0))
        model = make_random_model(17)
        for query in ([[0.0, bad]], [[0.5, 0.5], [bad, 0.0]]):
            for predict in (predict_mean, predict_variance, predict_derivative):
                with pytest.raises(ValueError, match="queries must be finite"):
                    predict(model, query)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_squared_distances_equal_cdist(self, d):
        rng = np.random.default_rng(20 + d)
        for m, n in [(1, 1), (1, 9), (9, 1), (12, 12), (50, 200)]:
            a = rng.uniform(-5.0, 5.0, (m, d)) * 10.0 ** rng.uniform(-3, 3)
            b = rng.uniform(-5.0, 5.0, (n, d)) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(gp._sq_dists(a, b), cdist(a, b, "sqeuclidean"))
            assert np.array_equal(gp._sq_dists(a, a), cdist(a, a, "sqeuclidean"))

    def test_fit_and_predictions_bypass_the_scipy_wrappers(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a SciPy Cholesky wrapper was called")

        for name in ("cholesky", "cho_solve"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        # the wrappers' bodies, however they were imported
        for name in ("_cholesky", "_cho_solve"):
            monkeypatch.setattr(_decomp_cholesky, name, forbidden)
        for name in ("cholesky", "cho_solve"):
            assert not hasattr(gp, name)
        # one pairwise-distance routine, types._sq_dists, serves every module
        for info in pkgutil.iter_modules(poltrans.__path__):
            module = importlib.import_module(f"poltrans.{info.name}")
            assert not hasattr(module, "cdist") and not hasattr(module, "pdist"), info.name

        rng = np.random.default_rng(16)
        x = rng.uniform(-1.0, 1.0, (12, 2))
        model = fit_gp(x, np.sin(3.0 * x))
        q = rng.uniform(-1.0, 1.0, (5, 2))
        assert np.isfinite(predict_mean(model, q)).all()
        assert np.isfinite(predict_variance(model, q)).all()
        jac, var = predict_derivative(model, q)
        assert np.isfinite(jac).all() and np.isfinite(var).all()


@given(
    st.lists(finite_coords, min_size=2, max_size=2),
    st.lists(finite_coords, min_size=2, max_size=2),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)
def test_kernel_symmetry_and_bounds(xi, xj, sp2, ell):
    params = KernelParams(sp2, ell)
    kij = kernel_se(xi, xj, params)
    assert kij == kernel_se(xj, xi, params)
    # >= 0: exp underflows to exactly zero at extreme separations
    assert 0.0 <= kij <= sp2
    assert kernel_se(xi, xi, params) == pytest.approx(sp2)
