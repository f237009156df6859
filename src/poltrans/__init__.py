"""Keypoint-conditioned policy transportation with GP residuals.

Fit a spatial map from paired keypoints (rigid alignment plus a GP
residual), then transport demonstrated positions, velocities, orientations,
stiffness and damping to the new task configuration with calibrated
uncertainty. Includes comparison baselines (Laplacian editing, time-indexed
displacement reshaping, locally weighted translations), trajectory metrics
with nonparametric ranking, and synthetic 2D benchmark scenarios.

``import poltrans`` loads no module of the package and no NumPy: each
public name, and each submodule named in ``_EXPORTS``, is imported on first
use (PEP 562). A name is looked up in its module on every use, never kept
here, so a patched module global is what the package hands out. Library
imports leave the caller's BLAS settings alone; the CLI's entries default
them to one thread (``_one_blas_thread``).
"""
import os
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "affine": ("AffineMap", "fit_affine"),
    "baselines": (
        "LWTMap", "ViaAssignment", "apply_lwt", "assign_via_points", "fit_lwt", "laplacian_edit", "reshaped_kmp",
    ),
    "gp": (
        "GPModel", "KernelParams", "build_gp", "fit_gp", "log_marginal_likelihood", "predict_derivative",
        "predict_mean", "predict_variance",
    ),
    "metrics": (
        "MetricReport", "RankingResult", "area_between_curves", "compute_metrics", "dtw_distance",
        "final_angle_error", "final_position_error", "frechet_distance", "mann_whitney_u", "rank_methods",
    ),
    "scenarios": (
        "FrameScenario", "Pose", "SurfaceScenario", "frame_pairing", "load_scenario", "make_frame_scenario",
        "make_surface_scenario", "random_frame_scenario", "save_scenario",
    ),
    "transport": (
        "DiffeoReport", "TransportMap", "TransportedLabels", "check_local_diffeomorphism", "fit_transport",
        "load_transport_map", "polar_rotation", "save_transport_map", "transport_jacobians", "transport_labels",
        "transport_points", "transport_uncertainty",
    ),
    "types": (
        "PairedKeypoints", "PointSet", "PolicyLabels", "Trajectory", "Violation", "is_rotation", "load_json",
        "rotation_residual", "save_json", "validate_labels",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


def _one_blas_thread() -> None:
    """Default OpenBLAS and OpenMP to one thread unless the caller set a
    count; it acts only if called before NumPy loads. The Gram matrices
    (a few hundred rows at most) gain nothing from BLAS threads, and a fit
    that bends ends where BLAS rounding steers its search, so its map.json
    would depend on the thread count."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(variable, "1")


def _script() -> int:
    """The installed ``poltrans`` script: ``cli.main`` on one BLAS thread."""
    _one_blas_thread()
    from .cli import main

    return main()
