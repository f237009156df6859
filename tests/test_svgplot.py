"""SVG overlays: rendering against a per-point formatting oracle, the
vectorized '%.2f' printer against printf, band offsets, and the
world-to-pixel transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from poltrans.svgplot import HEIGHT, WIDTH, SvgScene, _fixed2, offset_band

HEADER = [
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
    f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
    f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
]


def oracle_render(scene: SvgScene) -> str:
    """The document drawn one point at a time, each coordinate pair by its
    own f-string."""
    to_px = scene._transform()
    parts = list(HEADER)
    for tag, pts, attrs in scene._elements:
        if tag == "circle":
            for x, y in to_px(pts).tolist():
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" {attrs}/>')
        else:
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in to_px(pts).tolist())
            parts.append(f'<{tag} points="{coords}" {attrs}/>')
    parts.append("</svg>")
    return "\n".join(parts)


def every_element(scene: SvgScene, pts: np.ndarray) -> SvgScene:
    scene.polyline(pts, color="#999999", width=1.2, dash="6,4")
    scene.polyline(pts[::-1], color="#000000", width=1.8)
    scene.band(pts, 0.1 * np.arange(len(pts)))
    scene.markers(pts[:3], color="#bbbbbb")
    scene.markers(pts[-1:], color="#d62728")
    scene.markers(np.zeros((0, 2)))
    return scene


class TestRender:
    def test_matches_the_per_point_oracle_through_the_fitted_transform(self):
        rng = np.random.default_rng(0)
        scene = every_element(SvgScene(), rng.uniform(-3.0, 5.0, (40, 2)))
        assert scene.render() == oracle_render(scene)

    def test_matches_the_per_point_oracle_on_awkward_pixel_values(self, monkeypatch):
        # Pixel values straight from the test: ones that round to -0.00,
        # halves whose binary value rounds either way, and values >= 1000.
        pts = np.array([
            [-0.004, -0.0],
            [-0.0049999, 0.004],
            [0.005, 0.015],
            [2.675, 1.005],
            [999.995, 1000.0],
            [1234.5678, -98765.4321],
            [1e6 + 0.125, -1e-9],
        ])
        scene = every_element(SvgScene(), pts)
        monkeypatch.setattr(scene, "_transform", lambda: np.array)
        rendered = scene.render()
        assert rendered == oracle_render(scene)
        assert '"-0.00,-0.00 -0.00,0.00 ' in rendered
        assert "1234.57,-98765.43" in rendered and "1000000.12,-0.00" in rendered

    def test_each_element_has_its_style_attributes(self):
        scene = SvgScene()
        scene.polyline([[0.0, 0.0], [1.0, 1.0]], color="#999999", width=1.2)
        scene.band([[0.0, 0.0], [1.0, 1.0]], [0.1, 0.2])
        scene.markers([[0.0, 0.0]], color="#bbbbbb")
        polyline, polygon, circle = scene.render().splitlines()[2:5]
        assert polyline.endswith('" fill="none" stroke="#999999" stroke-width="1.2"/>')
        assert polygon.startswith("<polygon points=")
        assert polygon.endswith('" fill="#ffa500" opacity="0.35" stroke="none"/>')
        assert circle.endswith('" r="3.0" fill="#bbbbbb"/>')

    def test_dash_is_drawn_only_when_given(self):
        scene = SvgScene()
        scene.polyline([[0.0, 0.0], [1.0, 1.0]], dash="6,4")
        scene.polyline([[0.0, 0.0], [1.0, 1.0]])
        dashed, solid = scene.render().splitlines()[2:4]
        assert dashed.endswith(' stroke-width="1.5" stroke-dasharray="6,4"/>')
        assert solid.endswith(' stroke-width="1.5"/>')

    def test_one_circle_line_per_marker(self):
        scene = SvgScene()
        scene.markers([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]], color="#d62728")
        scene.markers(np.zeros((0, 2)))
        lines = scene.render().splitlines()
        assert lines[:2] == HEADER and lines[-1] == "</svg>"
        circles = lines[2:-1]
        assert len(circles) == 3
        assert all(c.startswith("<circle cx=") and c.endswith(' r="3.0" fill="#d62728"/>') for c in circles)

    @pytest.mark.parametrize("points", [np.zeros((4, 3)), np.zeros((4, 1)), np.zeros((2, 4, 2)), []])
    @pytest.mark.parametrize("add", ["polyline", "markers"])
    def test_points_that_are_not_planar_are_rejected(self, add, points):
        # flattened for formatting, (N, 3) points would pass as x,y pairs
        with pytest.raises(ValueError, match=r"\(N, 2\) array"):
            getattr(SvgScene(), add)(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("add", ["polyline", "markers", "band"])
    def test_a_non_finite_point_is_rejected_and_draws_nothing(self, add, bad):
        """One NaN point used to turn every coordinate of the document,
        other elements' included, into nan."""
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
        pts[1, 1] = bad
        scene = SvgScene()
        scene.polyline([[0.0, 0.0], [1.0, 1.0]])
        before = scene.render()
        args = (pts, np.full(3, 0.1)) if add == "band" else (pts,)
        name = "band points" if add == "band" else "SVG points"
        with pytest.raises(ValueError, match=f"{name}.* must be finite"):
            getattr(scene, add)(*args)
        assert scene.render() == before and "nan" not in before

    @pytest.mark.parametrize("add", ["polyline", "markers"])
    def test_a_1d_array_is_a_column_not_a_point(self, add):
        """types._as_batch's rule: a lone point is the one-row batch x[None]."""
        with pytest.raises(ValueError, match="must have dimension 2"):
            getattr(SvgScene(), add)(np.array([1.0, 2.0]))
        scene = SvgScene()
        getattr(scene, add)(np.array([1.0, 2.0])[None])
        assert len(scene._elements) == 1 and scene._elements[0][1].shape == (1, 2)

    @pytest.mark.parametrize("radii", [np.nan, np.inf, -0.1, [0.1, np.nan, 0.1], [0.1, -1e-300, 0.1]])
    def test_non_finite_or_negative_band_radii_are_rejected(self, radii):
        scene = SvgScene()
        with pytest.raises(ValueError, match="band radii must be finite and nonnegative"):
            scene.band([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]], radii)
        assert scene._elements == []

    @pytest.mark.parametrize("radii", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [], 0.1])
    def test_band_radii_of_the_wrong_length_are_rejected(self, radii):
        scene = SvgScene()
        message = rf"band radii must be one per band point: got {np.size(radii)} radii for 3 points"
        with pytest.raises(ValueError, match=message):
            scene.band([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], radii)
        assert scene._elements == []

    def test_scene_with_no_elements(self, tmp_path):
        scene = SvgScene()
        assert scene.render() == "\n".join([*HEADER, "</svg>"]) == oracle_render(scene)
        scene.write(tmp_path / "empty.svg")
        assert (tmp_path / "empty.svg").read_text(encoding="utf-8") == scene.render() + "\n"


# The printer's exact domain: |v * 100| < 2**52.
DOMAIN = 2.0**52 / 100


def assert_prints_like_printf(values):
    values = np.asarray(values, dtype=float)
    text, starts = _fixed2(values)
    printed = [text[starts[i] + 1:starts[i + 1]] for i in range(values.size)]
    assert printed == ["%.2f" % v for v in values.tolist()]
    assert text == "".join(" ,"[i % 2] + p for i, p in enumerate(printed))


class TestFixed2:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-DOMAIN, DOMAIN, exclude_min=True, exclude_max=True), min_size=1, max_size=20))
    def test_prints_floats_in_its_domain_like_printf(self, values):
        assert_prints_like_printf(values)

    def test_exact_ties_round_to_even_like_printf(self):
        # odd multiples of 1/8 are exact binary halves of a cent (0.125 -> 0.12,
        # 0.375 -> 0.38), also far from zero where v * 100 has few spare bits
        eighths = np.arange(-8001, 8002, 2) / 8.0
        assert_prints_like_printf(np.concatenate([eighths, eighths + 1e6, eighths - 1e11]))

    def test_neighbours_of_every_half_cent_like_printf(self):
        # products that round onto a half: the binary 2.675 is below it, 1.005 above
        halves = (np.arange(-100_000, 100_000) + 0.5) / 100
        assert_prints_like_printf(
            np.concatenate([halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)])
        )

    def test_signs_carries_and_widths_like_printf(self):
        values = [0.0, -0.0, -0.004, -0.0049999, -1e-300, 0.005, 999.995, -999.995, 9.999, 99.995]
        values += [sign * (10.0**digits - 0.001) for digits in range(1, 14) for sign in (1, -1)]
        values += [sign * 1.5 * 10.0**digits for digits in range(13) for sign in (1, -1)]
        assert_prints_like_printf(values)
        assert _fixed2(np.array([-0.0, 0.004]))[0] == " -0.00,0.00"
        text, starts = _fixed2(np.zeros(0))
        assert text == "" and starts.tolist() == [0]

    @pytest.mark.parametrize("value", [DOMAIN, -DOMAIN, 1e300, np.inf, -np.inf, np.nan])
    def test_values_outside_its_domain_are_rejected(self, value):
        with pytest.raises(ValueError, match=r"finite and below 2\*\*52 / 100"):
            _fixed2(np.array([1.0, value]))


class TestOffsetBand:
    def test_normals_of_a_straight_line(self):
        line = np.outer(np.arange(5.0), [3.0, 4.0]) + [1.0, -2.0]
        upper, lower = offset_band(line, np.full(5, 0.5))
        normal = np.array([-4.0, 3.0]) / 5.0
        assert_allclose(upper, line + 0.5 * normal, atol=1e-15)
        assert_allclose(lower, line - 0.5 * normal, atol=1e-15)

    def test_per_point_radii(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        upper, lower = offset_band(line, [0.0, 1.0, 2.0])
        assert_allclose(upper, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert_allclose(lower, [[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]])

    @pytest.mark.parametrize("points", [[[1.0, 2.0]], [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]])
    def test_zero_length_tangent_falls_back_to_the_x_axis(self, points):
        # tangent (1, 0) gives the normal (0, 1)
        upper, lower = offset_band(points, np.full(len(points), 0.25))
        assert_allclose(upper, np.asarray(points) + [0.0, 0.25])
        assert_allclose(lower, np.asarray(points) - [0.0, 0.25])


class TestTransform:
    def test_y_points_up_and_x_right(self):
        scene = SvgScene()
        scene.polyline([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        origin, right, up = scene._transform()(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert right[0] > origin[0] and right[1] == origin[1]
        assert up[1] < origin[1] and up[0] == origin[0]

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, 1.7e308)])
    def test_an_extent_that_overflows_is_rejected(self, lo, hi):
        """The extent overflows (or its padding does): the document used to
        be drawn with nan coordinates after two RuntimeWarnings."""
        scene = SvgScene()
        scene.polyline([[lo, 0.0], [hi, 1.0]])
        with pytest.raises(ValueError, match=r"padded SVG extent \[inf, .*\] is not finite"):
            scene.render()

    def test_drawn_content_fits_the_canvas(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-50.0, 20.0, (30, 2)) * [1.0, 3.0]
        scene = SvgScene()
        scene.polyline(pts)
        px = scene._transform()(pts)
        assert np.all(px >= 0.0) and np.all(px[:, 0] <= WIDTH) and np.all(px[:, 1] <= HEIGHT)
