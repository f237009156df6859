"""The point-batch contract: every spatial function takes (N, dim) batches
and returns results with a leading axis of N. A lone point is the one-row
batch ``x[None]``; a 1-d array is a column of N scalar inputs, so it is a
valid batch only for a 1-input GP."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_smooth_pair
from poltrans import check_local_diffeomorphism, fit_transport, transport_jacobians, transport_points
from poltrans.baselines import ViaAssignment, apply_lwt, fit_lwt
from poltrans.gp import fit_gp, predict_derivative, predict_mean, predict_variance
from poltrans.metrics import frechet_distance
from poltrans.scenarios import CANONICAL_GOAL
from poltrans.types import PointSet, PolicyLabels, Trajectory, _as_batch


@pytest.fixture(scope="module")
def world():
    kp = random_smooth_pair(np.random.default_rng(31), n=8)
    tmap = fit_transport(kp)
    return SimpleNamespace(tmap=tmap, lwt=fit_lwt(kp), reference=kp.target.points)


# Each case maps a batch to the tuple of its batched outputs, and names the
# message that a 1-d point of dimension 2 raises.
CASES = {
    "AffineMap.apply": (lambda w, x: (w.tmap.affine.apply(x),), "points must have dimension 2"),
    "predict_mean": (lambda w, x: (predict_mean(w.tmap.residual, x),), "queries must have dimension 2"),
    "predict_variance": (lambda w, x: (predict_variance(w.tmap.residual, x),), "queries must have dimension 2"),
    "predict_derivative": (lambda w, x: predict_derivative(w.tmap.residual, x), "queries must have dimension 2"),
    "transport_points": (lambda w, x: transport_points(w.tmap, x), "points must have dimension 2"),
    "transport_jacobians": (lambda w, x: transport_jacobians(w.tmap, x), "points must have dimension 2"),
    "check_local_diffeomorphism": (
        lambda w, x: (check_local_diffeomorphism(w.tmap, x).determinants,),
        "points must have dimension 2",
    ),
    "apply_lwt": (lambda w, x: (apply_lwt(w.lwt, x),), "points must have dimension 2"),
    "LWTUnit.weight": (lambda w, x: (w.lwt.units[0].weight(x),), "points must have dimension 2"),
    "LWTUnit.jacobian_det": (lambda w, x: (w.lwt.units[0].jacobian_det(x),), "points must have dimension 2"),
    "Pose.to_world": (lambda w, x: (CANONICAL_GOAL.to_world(x),), "local points must have dimension 2"),
    # A trajectory: its one result is a float, not a batch.
    "frechet_distance": (lambda w, x: (frechet_distance(x, w.reference),), "dimensions 1 and 2"),
}
BATCHED = [name for name in CASES if name != "frechet_distance"]


@pytest.mark.parametrize("name", CASES)
def test_a_1d_point_raises_naming_the_width(world, name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        call(world, np.array([0.1, 0.2]))


@pytest.mark.parametrize("name", CASES)
def test_a_batch_holding_nan_raises(world, name):
    call, _ = CASES[name]
    with pytest.raises(ValueError, match="must be finite"):
        call(world, np.array([[0.1, 0.2], [np.nan, 0.0]]))


@pytest.mark.parametrize("name", BATCHED)
def test_a_one_row_batch_keeps_its_leading_axis(world, name):
    call, _ = CASES[name]
    batch = np.array([[0.1, 0.2], [0.3, -0.4]])
    outputs = call(world, batch)
    ones = call(world, batch[1:])
    for out, one in zip(outputs, ones):
        assert one.shape == (1, *out.shape[1:])
        assert_allclose(one[0], out[1], rtol=1e-12, atol=1e-15)


def test_a_one_row_trajectory_is_one_point(world):
    point = np.array([[0.1, 0.2]])
    expected = np.linalg.norm(world.reference - point, axis=1).max()
    assert frechet_distance(point, world.reference) == pytest.approx(expected, rel=1e-15)


def test_a_1_input_gp_reads_a_1d_array_as_n_queries():
    t = np.linspace(0.0, 1.0, 5)
    model = fit_gp(t, np.sin(3.0 * t))
    queries = np.linspace(0.0, 1.0, 3)
    assert model.d_in == 1
    mean = predict_mean(model, queries)
    assert mean.shape == (3, 1)
    assert np.array_equal(mean, predict_mean(model, queries[:, None]))
    assert predict_variance(model, queries).shape == (3,)
    jac, var = predict_derivative(model, queries)
    assert jac.shape == (3, 1, 1) and var.shape == (3, 1, 1)


def test_via_assignment_targets_must_be_finite():
    with pytest.raises(ValueError, match="targets must be finite"):
        ViaAssignment(indices=[0, 3], targets=[[0.1, 0.2], [np.nan, 0.0]])


def test_an_empty_probe_set_raises(world):
    with pytest.raises(ValueError, match="at least one probe point required"):
        check_local_diffeomorphism(world.tmap, np.zeros((0, 2)))


@pytest.mark.parametrize(
    "values, message",
    [
        (np.zeros((2, 2, 2)), "x must be a 2-d array"),
        (np.zeros(()), "x must be a 2-d array"),
        (np.zeros((4, 3)), "x must have dimension 2"),
        ([[0.0, np.inf]], "x must be finite"),
    ],
)
def test_as_batch_names_what_is_wrong(values, message):
    with pytest.raises(ValueError, match=message):
        _as_batch(values, "x", dim=2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda p: PointSet(p), r"points must form an \(N, dim\) array"),
        (lambda p: PolicyLabels(positions=p), r"positions must form a nonempty \(M, dim\) array"),
        (lambda p: PolicyLabels(positions=p[None], velocities=p), r"velocities must have shape \(1, 2\)"),
        (lambda p: Trajectory(positions=p), r"positions must form a nonempty \(M, dim\) array"),
    ],
    ids=["PointSet", "PolicyLabels.positions", "PolicyLabels.velocities", "Trajectory"],
)
def test_a_record_takes_no_1d_array_as_one_point(build, message):
    """The records read batches as the functions do: a lone point is the
    one-row batch ``x[None]``, and a 1-d array is refused."""
    point = np.array([0.1, 0.2])
    with pytest.raises(ValueError, match=message):
        build(point)
