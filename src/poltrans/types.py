"""Shared domain types for keypoint-conditioned policy transportation.

Conventions used across the package:

* points are float64 row vectors, point sets are (N, dim) arrays, and
  every spatial function takes and returns such batches (:func:`_as_batch`),
* matrices are row-major when serialized,
* every container is immutable after construction (its arrays are marked
  read-only), so instances are safe to share across threads,
* a record's JSON form is its fields, written by :func:`to_dict` and read
  by :func:`from_dict`: arrays as nested lists, nested records as their
  own JSON form,
* every JSON text the package writes or prints is laid out by
  :func:`json_text`.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

# Tolerance admitting double-precision polar-decomposition output.
ORIENTATION_TOL = 1e-9
SPD_TOL = 1e-9


def _freeze(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _as_batch(values, name: str, dim: int | None = None) -> np.ndarray:
    """``values`` as a finite float (N, d) batch, the one form every spatial
    function takes and returns. A 1-d array is one column of N scalar
    inputs, never a single point: a lone point is the one-row batch
    ``x[None]``. Raises ValueError naming ``name`` for an array that is not
    2-d, a width other than ``dim`` (when given), or a non-finite entry."""
    out = np.asarray(values, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array")
    if dim is not None and out.shape[1] != dim:
        raise ValueError(f"{name} must have dimension {dim}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared distances between the rows of ``a`` and ``b``, the
    squared differences summed axis by axis in order, so every entry is
    bitwise equal to ``cdist(a, b, "sqeuclidean")``. sqrt is correctly
    rounded, so its square root is bitwise ``cdist(a, b)``. Each step runs
    in place, in at most two len(a) x len(b) buffers."""
    sq = a[:, None, 0] - b[None, :, 0]
    sq *= sq
    if a.shape[1] > 1:
        diff = np.empty_like(sq)
        for ax in range(1, a.shape[1]):
            np.subtract(a[:, None, ax], b[None, :, ax], out=diff)
            diff *= diff
            sq += diff
    return sq


@cache
def _schema(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, type, required) of each field of a record class. ``X | None``
    is taken as ``X``; a field with a default is not required. Resolved
    once per class."""
    hints = get_type_hints(cls)
    schema = []
    for f in fields(cls):
        tp = hints[f.name]
        if type(None) in get_args(tp):
            (tp,) = set(get_args(tp)) - {type(None)}
        schema.append((f.name, tp, f.default is MISSING and f.default_factory is MISSING))
    return tuple(schema)


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if is_dataclass(value):
        return value.to_dict()
    return value


def _decode(tp, value, field: str):
    """``value`` read as a ``tp`` field; ValueError naming ``field`` when a
    number, record or dict field holds another JSON value. A ``float``
    field takes any JSON number within the float range and an ``int``
    field one of integral value; neither takes a bool or a string."""
    kind = "null" if value is None else type(value).__name__
    if tp in (int, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if tp is float:
                try:
                    return float(value)
                except OverflowError:  # an int past the largest float
                    raise ValueError(
                        f"{field} must be a number within the float range, not an integer"
                        f" of about 10^{math.log10(abs(value)):.0f}"
                    ) from None
            if isinstance(value, int) or value.is_integer():
                return int(value)
        if isinstance(value, (bool, int, float, str)):
            kind += f" {value!r}"
        raise ValueError(f"{field} must be {'an integer' if tp is int else 'a number'}, not {kind}")
    if not (is_dataclass(tp) or get_origin(tp) is dict):
        return value
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, not {kind}")
    if is_dataclass(tp):
        return tp.from_dict(value)
    return {k: _decode(get_args(tp)[1], v, f"{field}[{k!r}]") for k, v in value.items()}


def to_dict(record) -> dict:
    """A record's JSON form: one key per field. Arrays become nested lists,
    tuples lists, and nested records their own ``to_dict``."""
    return {f.name: _encode(getattr(record, f.name)) for f in fields(record)}


def from_dict(cls, data: dict):
    """Rebuild a record from its JSON form. Nested records go through their
    own ``from_dict``; ``int``/``float`` fields and ``dict[str, float]``
    values are read as numbers (:func:`_decode`), converted to the field's
    type. Everything else is passed as read, for the class's
    ``__post_init__`` to coerce and check. A missing required key raises a
    ``KeyError`` naming the class and the key; a field with a default may
    be absent. A number, record or dict field that holds another JSON
    value raises a ``ValueError`` naming the class and the field."""
    kwargs = {}
    for name, tp, required in _schema(cls):
        if name in data:
            kwargs[name] = _decode(tp, data[name], f"{cls.__name__}.{name}")
        elif required:
            raise KeyError(f"{cls.__name__} has no {name!r} key")
    return cls(**kwargs)


def rotation_residual(matrix) -> tuple[float, float]:
    """Return (orthogonality residual, determinant residual) of a square matrix.

    The first entry is ``max |R^T R - I|``, the second ``|det R - 1|``. Both
    are ~0 for a proper rotation.
    """
    m = np.asarray(matrix, dtype=float)
    ortho = float(np.max(np.abs(m.T @ m - np.eye(m.shape[0]))))
    det = float(abs(np.linalg.det(m) - 1.0))
    return ortho, det


def is_rotation(matrix, tol: float = ORIENTATION_TOL) -> bool:
    ortho, det = rotation_residual(matrix)
    return ortho <= tol and det <= tol


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered set of N points in R^dim (dim 2 or 3), coordinates in meters."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must form an (N, dim) array")
        n, dim = pts.shape
        if n < 1:
            raise ValueError("point set needs at least one point")
        if dim not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {dim}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain NaN or Inf")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def diameter(self) -> float:
        """Largest pairwise distance; 0.0 for a single point."""
        return self._diameter

    @cached_property
    def _diameter(self) -> float:
        # Computed once per point set: its points are frozen.
        return float(np.sqrt(_sq_dists(self.points, self.points).max()))

    def to_dict(self) -> dict:
        return {"dim": self.dim, **to_dict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "PointSet":
        ps = from_dict(cls, data)
        if "dim" in data and _decode(int, data["dim"], "PointSet.dim") != ps.dim:
            raise ValueError("declared dim does not match point width")
        return ps


@dataclass(frozen=True, eq=False)
class PairedKeypoints:
    """Index-paired source/target keypoint sets defining the task change.

    Element i of ``source`` corresponds to element i of ``target``.
    """

    source: PointSet
    target: PointSet

    def __post_init__(self):
        if self.source.n != self.target.n:
            raise ValueError(
                f"source has {self.source.n} points, target {self.target.n}"
            )
        if self.source.dim != self.target.dim:
            raise ValueError("source and target dimensions differ")

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def n(self) -> int:
        return self.source.n

    to_dict = to_dict
    from_dict = classmethod(from_dict)


@dataclass(frozen=True, eq=False)
class PolicyLabels:
    """Demonstration labels: positions plus optional velocity/orientation/
    stiffness/damping sets, all of a common length M.

    Shapes: positions and velocities (M, dim); orientations, stiffness and
    damping (M, dim, dim). Only shape consistency is enforced here; numeric
    invariants (orientations in SO(dim), stiffness/damping symmetric PSD)
    are checked by :func:`validate_labels`, which reports rather than raises.
    """

    positions: np.ndarray
    velocities: np.ndarray | None = None
    orientations: np.ndarray | None = None
    stiffness: np.ndarray | None = None
    damping: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValueError("positions must form a nonempty (M, dim) array")
        m, dim = pos.shape
        object.__setattr__(self, "positions", _freeze(pos))

        if self.velocities is not None:
            vel = np.asarray(self.velocities, dtype=float)
            if vel.shape != (m, dim):
                raise ValueError(f"velocities must have shape ({m}, {dim})")
            object.__setattr__(self, "velocities", _freeze(vel))

        for name in ("orientations", "stiffness", "damping"):
            val = getattr(self, name)
            if val is None:
                continue
            arr = np.asarray(val, dtype=float)
            if arr.shape != (m, dim, dim):
                raise ValueError(f"{name} must have shape ({m}, {dim}, {dim})")
            object.__setattr__(self, name, _freeze(arr))

    @property
    def m(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    to_dict = to_dict
    from_dict = classmethod(from_dict)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered view of positions; timestamps optional but strictly
    increasing when present."""

    positions: np.ndarray
    times: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValueError("positions must form a nonempty (M, dim) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions contain NaN or Inf")
        object.__setattr__(self, "positions", _freeze(pos))
        if self.times is not None:
            t = np.asarray(self.times, dtype=float).ravel()
            if t.shape[0] != pos.shape[0]:
                raise ValueError("times length must match positions")
            if t.shape[0] > 1 and not np.all(np.diff(t) > 0):
                raise ValueError("times must be strictly increasing")
            object.__setattr__(self, "times", _freeze(t))

    @property
    def m(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    to_dict = to_dict
    from_dict = classmethod(from_dict)


@dataclass(frozen=True)
class Violation:
    """One invariant violation: which field, which element, how badly."""

    field: str
    index: int
    kind: str
    residual: float

    def __str__(self):
        return f"{self.field}[{self.index}]: {self.kind} residual {self.residual:.3e}"


def validate_labels(labels: PolicyLabels, tol: float = ORIENTATION_TOL) -> list[Violation]:
    """Check numeric label invariants; return a (possibly empty) report.

    Reported violations: non-finite entries anywhere, orientations failing
    R^T R = I or det R = +1 within ``tol``, stiffness/damping failing
    symmetry within ``tol`` or having eigenvalues below ``-tol``. Each
    family is checked in one pass over its whole stack; the report lists
    the families in field order, then labels by index, then each label's
    failed checks in the order above.

    Pure reporting: never raises, never mutates, idempotent.
    """
    report: list[Violation] = []

    for name in ("positions", "velocities"):
        arr = getattr(labels, name)
        if arr is not None:
            report += _family_violations(name, np.isfinite(arr).all(axis=1), [])

    # Non-finite matrices are reported as such and swapped for a stand-in,
    # so the stacked linear algebra below never sees NaN or Inf.
    eye = np.eye(labels.dim)
    if labels.orientations is not None:
        finite = np.isfinite(labels.orientations).all(axis=(1, 2))
        rot = np.where(finite[:, None, None], labels.orientations, eye)
        ortho = np.abs(np.swapaxes(rot, 1, 2) @ rot - eye).max(axis=(1, 2))
        det = np.abs(np.linalg.det(rot) - 1.0)
        report += _family_violations("orientations", finite, [
            ("orthogonality", ortho > tol, ortho),
            ("determinant", det > tol, det),
        ])

    for name in ("stiffness", "damping"):
        arr = getattr(labels, name)
        if arr is None:
            continue
        finite = np.isfinite(arr).all(axis=(1, 2))
        mat = np.where(finite[:, None, None], arr, eye)
        asym = np.abs(mat - np.swapaxes(mat, 1, 2)).max(axis=(1, 2))
        min_eig = np.linalg.eigvalsh(0.5 * (mat + np.swapaxes(mat, 1, 2))).min(axis=1)
        report += _family_violations(name, finite, [
            ("symmetry", asym > tol, asym),
            ("negative eigenvalue", min_eig < -SPD_TOL, -min_eig),
        ])

    return report


def _family_violations(field: str, finite: np.ndarray, checks) -> list[Violation]:
    """Violations of one label family, label by label: ``non-finite``, or
    else each (kind, failed mask, residuals) check that the label fails."""
    failed = ~finite
    for _, mask, _ in checks:
        failed = failed | mask
    report = []
    for i in np.flatnonzero(failed):
        if not finite[i]:
            report.append(Violation(field, int(i), "non-finite", float("nan")))
            continue
        report += [
            Violation(field, int(i), kind, float(res[i])) for kind, mask, res in checks if mask[i]
        ]
    return report


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    """A float as json writes it: ``float.__repr__``, NaN and the
    infinities spelled ``NaN``, ``Infinity`` and ``-Infinity``."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as json writes it: a string, or a scalar's JSON text as a
    string."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return _encode_str(_json(key, 0))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _float_block(value):
    """(shape, leaves) of a nonempty list or tuple nesting exact finite
    floats in lists of a uniform shape, such as an (N, d) or (N, d, d)
    array's ``tolist()``; else None."""
    shape = (len(value),)
    leaves = value
    while type(leaves[0]) is list:
        width = len(leaves[0])
        if not width or set(map(type, leaves)) != {list} or set(map(len, leaves)) != {width}:
            return None
        shape += (width,)
        leaves = [x for row in leaves for x in row]
    # A NaN or an infinity makes the sum non-finite; so can an overflow,
    # which only sends a finite block down the general path.
    if set(map(type, leaves)) != {float} or not math.isfinite(sum(leaves)):
        return None
    return shape, leaves


def _layout(items: list[str], level: int, brackets: str = "[]") -> str:
    """JSON texts one per line, indented one level deeper than the
    ``brackets`` around them at nesting ``level``."""
    indent = "\n" + "  " * (level + 1)
    return brackets[0] + indent + ("," + indent).join(items) + "\n" + "  " * level + brackets[1]


def _block_template(shape: tuple, level: int) -> str:
    """The layout of a float block at nesting ``level``, with one ``%r``
    per float."""
    if not shape:
        return "%r"
    return _layout([_block_template(shape[1:], level + 1)] * shape[0], level)


def _json(value, level: int) -> str:
    """``value``'s JSON text at nesting ``level``."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        block = _float_block(value)
        if block is not None:
            return _block_template(block[0], level) % tuple(block[1])
        return _layout([_json(v, level + 1) for v in value], level)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_key_text(k) + ": " + _json(v, level + 1) for k, v in sorted(value.items())]
        return _layout(items, level, "{}")
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def json_text(data) -> str:
    """``data`` as the package writes JSON: exactly the text of
    ``json.dumps(data, indent=2, sort_keys=True)``, built without json's
    pure-Python indenting encoder. A list nesting finite exact floats in a
    uniform shape (an array's ``tolist()``) is written in one ``%`` format;
    everything else goes value by value. A value json cannot write raises
    json's TypeError."""
    return _json(data, 0)


def save_json(obj, path) -> None:
    """Write any object exposing ``to_dict`` (or a plain dict) as
    :func:`json_text` plus a newline, creating the parent directory if
    needed. The document is built before the file is opened, so a value
    json cannot write raises TypeError and leaves no file."""
    data = obj.to_dict() if hasattr(obj, "to_dict") else obj
    text = json_text(data) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def load_json(path) -> dict:
    """The JSON object held by ``path``; ValueError naming the path when the
    file is not valid UTF-8 JSON or holds another JSON value."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return data

