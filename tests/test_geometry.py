import math

import numpy as np
import pytest

from mlwos.geometry import (
    Ball,
    BoundaryCondition,
    Hemisphere,
    Problem,
    Square,
    ball_problem,
    boundary_value,
    get_problem,
    hemisphere_problem,
    square_problem,
)

SQUARE = Square()
HEMI = Hemisphere()


class TestDistance:
    def test_square_center(self):
        assert SQUARE.distance_to_boundary((1.0, 1.0)) == 1.0

    def test_square_off_center(self):
        assert SQUARE.distance_to_boundary((0.3, 1.8)) == pytest.approx(0.2, abs=1e-15)

    def test_hemisphere_near_plane(self):
        assert HEMI.distance_to_boundary((0.0, 0.0, 0.1)) == pytest.approx(0.1, abs=1e-15)

    def test_ball_center(self):
        assert Ball(3, 1.0).distance_to_boundary((0.0, 0.0, 0.0)) == 1.0

    def test_boundary_point_is_zero(self):
        assert SQUARE.distance_to_boundary((0.0, 1.3)) == 0.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError, match="outside"):
            SQUARE.distance_to_boundary((2.5, 1.0))
        with pytest.raises(ValueError, match="outside"):
            HEMI.distance_to_boundary((0.0, 0.0, -0.2))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            SQUARE.distance_to_boundary((0.5, 0.5, 0.5))


class TestProjection:
    def test_square_nearest_edge(self):
        np.testing.assert_allclose(
            SQUARE.project_to_boundary((0.3, 1.8)), [0.3, 2.0], atol=1e-15
        )

    def test_hemisphere_plane_face(self):
        np.testing.assert_allclose(
            HEMI.project_to_boundary((0.0, 0.0, 0.1)), [0.0, 0.0, 0.0], atol=1e-15
        )

    def test_hemisphere_plane_beats_sphere(self):
        # plane distance 0.05 versus spherical distance about 0.0986
        np.testing.assert_allclose(
            HEMI.project_to_boundary((0.9, 0.0, 0.05)), [0.9, 0.0, 0.0], atol=1e-15
        )

    def test_square_corner_tie_prefers_first_axis(self):
        proj = SQUARE.project_to_boundary((0.25, 0.25))
        np.testing.assert_allclose(proj, [0.0, 0.25], atol=1e-15)

    def test_square_matches_candidate_argmin(self):
        """Bit for bit the argmin over the stacked candidates (x, 2 - x,
        y, 2 - y), which breaks ties to the lowest index."""

        def argmin_reference(pts):
            x, y = pts[:, 0], pts[:, 1]
            k = np.argmin(np.stack([x, 2.0 - x, y, 2.0 - y], axis=1), axis=1)
            out = pts.copy()
            out[k == 0, 0] = 0.0
            out[k == 1, 0] = 2.0
            out[k == 2, 1] = 0.0
            out[k == 3, 1] = 2.0
            return out

        rng = np.random.default_rng(3)
        grid = np.array([-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 1.75, 2.0])
        pts = np.concatenate([
            rng.uniform(0.0, 2.0, (2000, 2)),
            rng.uniform(-1.0, 3.0, (500, 2)),
            rng.integers(0, 17, (2000, 2)) / 8.0,  # equidistant ties
            np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2),  # corners
        ])
        got, want = SQUARE._proj(pts), argmin_reference(pts)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_projection_distance_consistency(self):
        rng = np.random.default_rng(7)
        for domain in (SQUARE, HEMI, Ball(2), Ball(5, 0.5)):
            for _ in range(200):
                p = rng.uniform(-1.0, 2.0, size=domain.dim)
                try:
                    d = domain.distance_to_boundary(p)
                except ValueError:
                    continue
                proj = domain.project_to_boundary(p)
                assert abs(np.linalg.norm(proj - p) - d) <= 1e-12 * domain.diameter
                assert domain.distance_to_boundary(proj) <= 1e-12 * domain.diameter

    def test_distance_is_one_lipschitz(self):
        rng = np.random.default_rng(11)
        for domain in (SQUARE, HEMI, Ball(3)):
            pts = []
            while len(pts) < 100:
                p = rng.uniform(-1.0, 2.0, size=domain.dim)
                try:
                    d = domain.distance_to_boundary(p)
                except ValueError:
                    continue
                pts.append((p, d))
            for (p, dp), (q, dq) in zip(pts, pts[1:]):
                assert abs(dp - dq) <= np.linalg.norm(p - q) + 1e-12


class TestBoundaryValues:
    def test_square_quadratic_branch(self):
        prob = square_problem()
        assert boundary_value(SQUARE, prob.bc, (0.25, 0.0)) == pytest.approx(0.25)

    def test_square_otherwise_branch(self):
        prob = square_problem()
        assert boundary_value(SQUARE, prob.bc, (1.0, 0.0)) == 0.0

    def test_hemisphere_spherical_branch(self):
        prob = hemisphere_problem()
        assert boundary_value(HEMI, prob.bc, (0.0, 0.0, 1.0)) == pytest.approx(0.5)

    def test_hemisphere_planar_branch(self):
        prob = hemisphere_problem()
        assert boundary_value(HEMI, prob.bc, (0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_rejects_interior_point(self):
        prob = square_problem()
        with pytest.raises(ValueError, match="tolerance"):
            boundary_value(SQUARE, prob.bc, (1.0, 1.0))

    def test_square_seam_continuity(self):
        prob = square_problem()
        for x in (0.5, 1.5):
            for y in (0.0, 2.0):
                assert boundary_value(SQUARE, prob.bc, (x, y)) == 0.0

    def test_hemisphere_rim_branches_agree(self):
        prob = hemisphere_problem()
        for angle in np.linspace(0.0, 2.0 * math.pi, 9):
            rim = (math.cos(angle), math.sin(angle), 0.0)
            val = boundary_value(HEMI, prob.bc, rim)
            assert val == pytest.approx(2.0 ** -0.5, abs=1e-12)

    def test_model_problems_are_lipschitz_tagged(self):
        assert square_problem().bc.holder_alpha == 1.0
        assert hemisphere_problem().bc.holder_alpha == 1.0

    def test_bad_holder_exponent_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition(lambda pts: pts[:, 0], holder_alpha=1.5)

    @pytest.mark.parametrize("name", ["square", "hemisphere", "ball2", "ball3", "ball-x1"])
    def test_data_is_row_wise(self, name):
        """Boundary data on 10,000 boundary points read 7 rows at a time
        gives the bits of one call, as the level sampler's chunks need."""
        prob = ball_problem(3, data="x1") if name == "ball-x1" else get_problem(name)
        domain = prob.domain
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.0, 2.0, size=(300_000, domain.dim))
        pts = domain._proj(pts[domain._dist(pts) > 0.0][:10_000])
        assert len(pts) == 10_000
        chunked = np.concatenate([prob.bc(pts[a:a + 7]) for a in range(0, len(pts), 7)])
        np.testing.assert_array_equal(chunked, prob.bc(pts))


class TestReferenceValues:
    def test_hemisphere_analytic(self):
        prob = hemisphere_problem()
        expected = (0.04 + 0.09 + 1.21) ** -0.5
        assert prob.reference_solution == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.863868, abs=5e-7)
        assert prob.reference_provenance == "analytic"

    def test_square_oracle_registered(self):
        prob = square_problem()
        assert prob.reference_provenance == "oracle"
        assert prob.reference_solution == pytest.approx(0.5227663, abs=1e-12)

    def test_ball_constant_extension(self):
        prob = ball_problem(2)
        assert prob.reference_solution == 1.0
        assert prob.bc((0.6, -0.8)) == 1.0


class TestProblems:
    def test_registry_names(self):
        for name, dim in (("square", 2), ("hemisphere", 3), ("ball2", 2), ("ball3", 3)):
            prob = get_problem(name)
            assert prob.domain.dim == dim
            assert prob.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("cube")

    def test_start_must_be_interior(self):
        with pytest.raises(ValueError, match="interior"):
            Problem(domain=SQUARE, bc=square_problem().bc, start=(0.0, 1.0))

    def test_hemisphere_start_matches_model(self):
        prob = hemisphere_problem()
        np.testing.assert_allclose(prob.start, [0.2, 0.3, 0.1])

    def test_ball_coordinate_fixture(self):
        prob = ball_problem(2, data="x1")
        assert prob.reference_solution == 0.0
        assert prob.bc((0.0, 1.0)) == 0.0
        assert prob.bc((1.0, 0.0)) == 1.0
