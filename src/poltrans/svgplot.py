"""Minimal SVG emission for scenario overlays (no plotting dependency).

Renders polyline curves, filled uncertainty bands, and point markers into a
standalone SVG document with a y-up world-to-screen transform fitted to the
drawn content.

Coordinates print as ``'%.2f' % v`` would, in one vectorized pass per
document (``_fixed2``). ``np.rint(v * 100)`` is exact: while |v * 100| <
2**52 every k + 1/2 is a float, so the rounded product can land on a half
but never cross one. A product of exactly k + 1/2 (a tie such as 0.125, or
a product rounded onto the half) is settled in integers on
``float(v).as_integer_ratio()``, ties to even, as ``'%.2f'`` does.
"""
from __future__ import annotations

import numpy as np

from .types import _as_batch

# Canvas size in pixels, and the padding around the drawn content as a
# fraction of its larger extent.
WIDTH = 640
HEIGHT = 480
MARGIN = 0.06


def offset_band(points: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper/lower polylines offset from a curve along its local normals.

    ``points`` is an (N, 2) batch (``types._as_batch``) and ``radii`` the
    per-point half-width (e.g. two standard deviations), finite and
    nonnegative: N of them, or one for every point. Normals come from the
    averaged neighboring segment directions; zero-length tangents fall back
    to the x axis.
    """
    pts = _as_batch(points, "band points", 2)
    rad = np.asarray(radii, dtype=float).ravel()
    # A NaN radius would turn every coordinate of the document into nan.
    if not (np.isfinite(rad).all() and (rad >= 0).all()):
        raise ValueError("band radii must be finite and nonnegative")
    if rad.size not in (1, pts.shape[0]):
        raise ValueError(f"band radii must be one per band point: got {rad.size} radii for {pts.shape[0]} points")
    rad = np.broadcast_to(rad, (pts.shape[0],))
    ahead = np.diff(pts, axis=0, append=pts[-1:])
    behind = np.diff(pts, axis=0, prepend=pts[:1])
    tangent = ahead + behind
    norms = np.linalg.norm(tangent, axis=1, keepdims=True)
    tangent = np.where(norms > 0, tangent / np.where(norms > 0, norms, 1.0), [1.0, 0.0])
    normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    return pts + rad[:, None] * normal, pts - rad[:, None] * normal


def _fixed2(values: np.ndarray) -> tuple[str, np.ndarray]:
    """``'%.2f' % v`` of every value in one text, value i at
    ``text[starts[i] + 1:starts[i + 1]]`` after " " (even i) or "," (odd i).
    Raises ValueError outside the exact domain: not finite, or |v * 100| >= 2**52."""
    v = np.asarray(values, dtype=float).ravel()
    scaled = v * 100.0
    if not (np.abs(scaled) < 2.0**52).all():
        raise ValueError("SVG coordinates must be finite and below 2**52 / 100 in magnitude")
    cents = np.rint(scaled)
    for i in np.flatnonzero(np.abs(scaled - np.trunc(scaled)) == 0.5):
        num, den = float(v[i]).as_integer_ratio()
        q, r = divmod(100 * num, den)
        cents[i] = q + (2 * r > den or (2 * r == den and q % 2 == 1))
    cents = np.abs(cents).astype(np.int64)
    width = len(str(cents.max(initial=0) // 100))  # integer digits
    # One row per value: separator, sign, integer digits, ".", two decimals.
    # A 0 byte (no sign, or a leading zero) is dropped.
    mat = np.zeros((v.size, width + 5), dtype=np.uint8)
    mat[0::2, 0], mat[1::2, 0] = ord(" "), ord(",")
    mat[:, 1] = np.signbit(v) * np.uint8(ord("-"))
    mat[:, -3] = ord(".")
    # last digit first; a digit above the units only while the rest is > 0
    for col in [-1, -2, *range(-4, -4 - width, -1)]:
        rest = cents // 10
        digit = cents - 10 * rest + ord("0")
        mat[:, col] = digit if col >= -4 else np.where(cents > 0, digit, 0)
        cents = rest
    raw = mat.tobytes().translate(None, b"\0")
    # the separators are the only bytes below "-"
    starts = np.append(np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) < ord("-")), len(raw))
    return raw.decode("ascii"), starts


class SvgScene:
    """Collects world-space drawing primitives, then renders one SVG."""

    def __init__(self):
        self._elements: list[tuple] = []
        self._points: list[np.ndarray] = []

    def _track(self, points) -> np.ndarray:
        """Planar points as a finite (N, 2) batch (``types._as_batch``: a 1-d
        array is a column, not a point), counted in the extent. One
        non-finite point would turn every coordinate of the document into
        nan, and the renderer formats a flat run of coordinates as x,y pairs."""
        pts = _as_batch(points, "SVG points (an (N, 2) array)", 2)
        if pts.size:
            self._points.append(pts)
        return pts

    def polyline(self, points, color: str = "#000000", width: float = 1.5, dash: str | None = None) -> None:
        self._elements.append(("polyline", self._track(points), color, width, dash))

    def polygon(self, points, fill: str = "#ffa500", opacity: float = 0.3) -> None:
        self._elements.append(("polygon", self._track(points), fill, opacity))

    def markers(self, points, color: str = "#d62728", radius: float = 3.0) -> None:
        self._elements.append(("markers", self._track(points), color, radius))

    def band(self, points, radii, fill: str = "#ffa500", opacity: float = 0.35) -> None:
        upper, lower = offset_band(points, radii)
        self.polygon(np.vstack([upper, lower[::-1]]), fill=fill, opacity=opacity)

    def _transform(self):
        stacked = np.vstack(self._points) if self._points else np.zeros((1, 2))
        lo = stacked.min(axis=0)
        hi = stacked.max(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            span = np.maximum(hi - lo, 1e-9)
            pad = MARGIN * float(span.max())
            lo, hi = lo - pad, hi + pad
            span = hi - lo
        if not np.isfinite(span).all():
            raise ValueError(f"padded SVG extent {span.tolist()} is not finite: the points are too far apart")
        scale = min(WIDTH / span[0], HEIGHT / span[1])

        def to_px(pts: np.ndarray) -> np.ndarray:
            out = (pts - lo) * scale
            out[:, 1] = HEIGHT - out[:, 1]  # y grows upward in world space
            return out

        return to_px

    def render(self) -> str:
        # self._points: every element's points, in element order (an empty one adds none)
        text, starts = _fixed2(self._transform()(np.vstack([np.zeros((0, 2)), *self._points])))
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        ]
        end = 0
        for element in self._elements:
            kind = element[0]
            first, end = end, end + element[1].size
            coords = text[starts[first] + 1:starts[end]]
            if kind == "polyline":
                _, _, color, width, dash = element
                dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    f'stroke-width="{width}"{dash_attr}/>'
                )
            elif kind == "polygon":
                _, _, fill, opacity = element
                parts.append(
                    f'<polygon points="{coords}" fill="{fill}" opacity="{opacity}" stroke="none"/>'
                )
            elif kind == "markers":
                _, _, color, radius = element
                for i in range(first, end, 2):
                    parts.append(
                        f'<circle cx="{text[starts[i] + 1:starts[i + 1]]}" '
                        f'cy="{text[starts[i + 1] + 1:starts[i + 2]]}" r="{radius}" fill="{color}"/>'
                    )
        parts.append("</svg>")
        return "\n".join(parts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
            fh.write("\n")
