"""Synthetic 2D benchmark scenario generators.

Two families:

* Surface scenarios — a flat baseline segment deforms into a target profile
  (tilted, sinusoidal, stepped, or a sinusoid then tilted), each one record
  of ``_PROFILES``: its default parameters and its map. Keypoints sample the
  baseline and its image; the demonstration is a periodic
  approach-traverse-retreat loop over the baseline. Every scenario carries
  an analytic reference rollout (the demonstration pushed through the exact
  profile map) to score transported trajectories against.

* Frame scenarios — a reaching motion between a start frame and a goal
  frame, each carrying rigidly attached keypoints. The demonstration is
  generated for one fixed canonical frame pair; new scenarios perturb the
  frames, and the reference rollout regenerates the reaching curve at the
  perturbed frames.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .types import PairedKeypoints, PointSet, Trajectory, _as_batch, from_dict, load_json, save_json, to_dict

# Demonstration loop over the unit baseline: hover in, traverse, retreat,
# return. Piecewise-linear waypoints with phase breakpoints.
_LOOP_WAYPOINTS = np.array([[0.0, 0.3], [0.0, 0.0], [1.0, 0.0], [1.0, 0.3], [0.0, 0.3]])
_LOOP_BREAKS = np.array([0.0, 0.15, 0.6, 0.75, 1.0])
_LOOP_SAMPLES = 200


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _sine(pts: np.ndarray, params: dict) -> np.ndarray:
    pts[:, 1] += params["amplitude"] * np.sin(2.0 * np.pi * params["frequency"] * pts[:, 0])
    return pts


def _step(pts: np.ndarray, params: dict) -> np.ndarray:
    pts[:, 1] += 0.5 * params["height"] * (1.0 + np.tanh((pts[:, 0] - params["position"]) / params["width"]))
    return pts


@dataclass(frozen=True)
class _Profile:
    """A surface profile: its default parameters, and ``apply(points,
    params)``, which maps a float (N, 2) batch in place where it can."""

    defaults: dict[str, float]
    apply: Callable[[np.ndarray, dict], np.ndarray]


_PROFILES = {
    "flat": _Profile({}, lambda pts, params: pts),
    "tilt": _Profile({"angle": 0.35}, lambda pts, params: pts @ _rotation(params["angle"]).T),
    "sine": _Profile({"amplitude": 0.08, "frequency": 1.0}, _sine),
    "step": _Profile({"height": 0.12, "position": 0.55, "width": 0.04}, _step),
    "composite": _Profile(
        {"angle": 0.25, "amplitude": 0.1, "frequency": 1.5},
        lambda pts, params: _sine(pts, params) @ _rotation(params["angle"]).T,
    ),
}
SURFACE_PROFILES = tuple(_PROFILES)


def _profile(name: str) -> _Profile:
    if name not in _PROFILES:
        raise ValueError(f"unknown profile {name!r}; choose from {SURFACE_PROFILES}")
    return _PROFILES[name]


def surface_map(profile: str, params: dict):
    """The analytic ambient map sending the flat baseline onto the profile; it maps a copy."""
    apply = _profile(profile).apply
    return lambda pts: apply(np.array(pts, dtype=float), params)


@dataclass(frozen=True, eq=False)
class SurfaceScenario:
    """A surface-deformation transport instance with analytic ground truth."""

    kind: ClassVar[str] = "surface"
    profile: str
    params: dict[str, float]
    keypoints: PairedKeypoints
    demonstration: Trajectory
    reference: Trajectory
    seed: int

    @property
    def name(self) -> str:
        return f"surface-{self.profile}-{self.seed}"

    def to_dict(self) -> dict:
        return {"kind": self.kind, **to_dict(self)}

    from_dict = classmethod(from_dict)


def _loop_demonstration() -> Trajectory:
    t = np.arange(_LOOP_SAMPLES) / _LOOP_SAMPLES
    positions = np.empty((_LOOP_SAMPLES, 2))
    for axis in range(2):
        positions[:, axis] = np.interp(t, _LOOP_BREAKS, _LOOP_WAYPOINTS[:, axis])
    return Trajectory(positions=positions, times=t)


def make_surface_scenario(profile: str, n_keypoints: int = 12, seed: int = 0) -> SurfaceScenario:
    """Build one surface instance, deterministic given the seed.

    Source keypoints sit on the flat baseline y = 0, x in [0, 1], evenly
    spaced with a small seeded jitter (order preserving); target keypoints
    are their images under the profile map at the same abscissae.
    """
    if n_keypoints < 2:
        raise ValueError("need at least two keypoints")
    params = dict(_profile(profile).defaults)

    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n_keypoints)
    spacing = 1.0 / (n_keypoints - 1)
    xs = np.clip(xs + rng.uniform(-0.3, 0.3, n_keypoints) * spacing, 0.0, 1.0)
    xs.sort()
    source = np.stack([xs, np.zeros_like(xs)], axis=1)

    mapping = surface_map(profile, params)
    demo = _loop_demonstration()
    return SurfaceScenario(
        profile=profile,
        params=params,
        keypoints=PairedKeypoints(source=PointSet(source), target=PointSet(mapping(source))),
        demonstration=demo,
        reference=Trajectory(positions=mapping(demo.positions), times=demo.times),
        seed=seed,
    )


@dataclass(frozen=True)
class Pose:
    """A planar frame: position plus heading angle (radians)."""

    xy: tuple[float, float]
    heading: float

    def __post_init__(self):
        xy = (float(self.xy[0]), float(self.xy[1]))
        if not all(np.isfinite(v) for v in (*xy, self.heading)):
            raise ValueError("pose entries must be finite")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "heading", float(self.heading))

    @property
    def position(self) -> np.ndarray:
        return np.array(self.xy)

    @property
    def direction(self) -> np.ndarray:
        return np.array([np.cos(self.heading), np.sin(self.heading)])

    def to_world(self, local: np.ndarray) -> np.ndarray:
        """An (N, 2) batch of points in this frame, in world coordinates."""
        return _as_batch(local, "local points", 2) @ _rotation(self.heading).T + self.position

    to_dict = to_dict
    from_dict = classmethod(from_dict)


CANONICAL_START = Pose(xy=(0.0, 0.0), heading=0.0)
CANONICAL_GOAL = Pose(xy=(1.0, 0.55), heading=1.1)

_FRAME_KP_RADIUS = 0.12
_DOCK_LENGTH = 0.22
# The motion stops this far short of the goal origin (contact clearance).
_CONTACT_OFFSET = 0.06
_CURVE_SAMPLES = 200
_DOCK_SAMPLES = 30


def _frame_offsets(count: int) -> np.ndarray:
    """Fixed local keypoint offsets: the frame origin plus points on a
    circle around it."""
    if count < 1:
        raise ValueError("need at least one keypoint per frame")
    offsets = [np.zeros(2)]
    for j in range(count - 1):
        angle = 2.0 * np.pi * j / (count - 1)
        offsets.append(_FRAME_KP_RADIUS * np.array([np.cos(angle), np.sin(angle)]))
    return np.stack(offsets)


def _frame_keypoints(start: Pose, goal: Pose, count: int) -> PointSet:
    local = _frame_offsets(count)
    return PointSet(np.vstack([start.to_world(local), goal.to_world(local)]))


def _frame_curve(start: Pose, goal: Pose) -> Trajectory:
    """Reaching curve: a cubic Hermite arc from the start frame to a dock
    point behind the goal, then a straight docking segment along the goal
    heading, stopping a contact clearance short of the goal origin."""
    dock = goal.position - _DOCK_LENGTH * goal.direction
    contact = goal.position - _CONTACT_OFFSET * goal.direction
    scale = float(np.linalg.norm(dock - start.position))
    scale = max(scale, 1e-6)
    m0 = scale * start.direction
    m1 = scale * goal.direction

    u = np.linspace(0.0, 1.0, _CURVE_SAMPLES - _DOCK_SAMPLES)
    h00 = 2 * u**3 - 3 * u**2 + 1
    h10 = u**3 - 2 * u**2 + u
    h01 = -2 * u**3 + 3 * u**2
    h11 = u**3 - u**2
    arc = (
        h00[:, None] * start.position
        + h10[:, None] * m0
        + h01[:, None] * dock
        + h11[:, None] * m1
    )

    v = np.linspace(0.0, 1.0, _DOCK_SAMPLES + 1)[1:]
    docking = dock + v[:, None] * (contact - dock)

    positions = np.vstack([arc, docking])
    times = np.linspace(0.0, 1.0, positions.shape[0])
    return Trajectory(positions=positions, times=times)


@dataclass(frozen=True, eq=False)
class FrameScenario:
    """A two-frame reaching instance: canonical demonstration, perturbed
    frames, and the regenerated reference curve at those frames."""

    kind: ClassVar[str] = "frame"
    start_pose: Pose
    goal_pose: Pose
    keypoints_per_frame: int
    keypoints: PairedKeypoints
    demonstration: Trajectory
    reference: Trajectory
    seed: int

    @property
    def name(self) -> str:
        return f"frame-{self.seed}"

    def to_dict(self) -> dict:
        return {"kind": self.kind, **to_dict(self)}

    from_dict = classmethod(from_dict)


def make_frame_scenario(
    start_pose: Pose,
    goal_pose: Pose,
    keypoints_per_frame: int = 5,
    seed: int = 0,
) -> FrameScenario:
    """Frame instance with keypoints rigidly attached to both frames.

    Source keypoints are the canonical frames' keypoints; targets are the
    same local offsets expressed in the given frames. The demonstration is
    always the canonical reaching curve; the reference rollout is the curve
    regenerated at the given frames.
    """
    if float(np.linalg.norm(start_pose.position - goal_pose.position)) < 1e-9:
        raise ValueError("start and goal frames coincide")
    source = _frame_keypoints(CANONICAL_START, CANONICAL_GOAL, keypoints_per_frame)
    target = _frame_keypoints(start_pose, goal_pose, keypoints_per_frame)
    return FrameScenario(
        start_pose=start_pose,
        goal_pose=goal_pose,
        keypoints_per_frame=keypoints_per_frame,
        keypoints=PairedKeypoints(source=source, target=target),
        demonstration=_frame_curve(CANONICAL_START, CANONICAL_GOAL),
        reference=_frame_curve(start_pose, goal_pose),
        seed=seed,
    )


def random_frame_scenario(seed: int, keypoints_per_frame: int = 5) -> FrameScenario:
    """Perturb both canonical frames with a seeded random offset.

    The pose draws happen before keypoint construction in a fixed order, so
    one seed produces the same frames for every keypoint count.
    """
    rng = np.random.default_rng(seed)
    start = Pose(
        xy=tuple(np.asarray(CANONICAL_START.xy) + rng.uniform(-0.3, 0.3, 2)),
        heading=CANONICAL_START.heading + rng.uniform(-0.8, 0.8),
    )
    goal = Pose(
        xy=tuple(np.asarray(CANONICAL_GOAL.xy) + rng.uniform(-0.3, 0.3, 2)),
        heading=CANONICAL_GOAL.heading + rng.uniform(-0.8, 0.8),
    )
    return make_frame_scenario(start, goal, keypoints_per_frame, seed=seed)


def frame_pairing(train: FrameScenario, test: FrameScenario) -> PairedKeypoints:
    """Keypoint pairs mapping one scenario's frames onto another's.

    Pairs the training scenario's frame keypoints (sources) with the test
    scenario's (targets); both scenarios must use the same per-frame count,
    which makes index pairing valid by construction.
    """
    if train.keypoints_per_frame != test.keypoints_per_frame:
        raise ValueError("scenarios use different keypoints-per-frame counts")
    return PairedKeypoints(source=train.keypoints.target, target=test.keypoints.target)


def save_scenario(scenario, path) -> None:
    save_json(scenario.to_dict(), path)


def load_scenario(path):
    data = load_json(path)
    kind = data.get("kind")
    # Compared, not hashed, so a list or dict kind is refused like any other.
    cls = next((cls for cls in (SurfaceScenario, FrameScenario) if cls.kind == kind), None)
    if cls is None:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return cls.from_dict(data)

