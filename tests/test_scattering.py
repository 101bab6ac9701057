"""Tropical-vertex engine: consistency, pentagon, anchors, extraction."""

import random
from fractions import Fraction

import pytest

from wallcross.algebra import log_coeffs
from wallcross.errors import (
    DomainError,
    InsufficientOrder,
    NonPrimitiveInput,
    OrderOverflow,
)
from wallcross.invariants import dt_kronecker_numeric
from wallcross.scattering import (
    Ray,
    ScatteringDiagram,
    _XYPoly,
    central_log_closed_form,
    central_ray_omega,
    complete_to_consistency,
    consistency_defect,
    initial_diagram,
    wall_crossing_automorphism,
)


def completed(m: int, order: int) -> ScatteringDiagram:
    return complete_to_consistency(initial_diagram(m), order)


# ---------------------------------------------------------------------------
# Wall crossings


def test_crossing_of_transverse_generator():
    # f = 1 + X on the horizontal line sends Y to Y * (1 + X)^(+-m)
    ray = Ray.make((1, 0), True, {1: Fraction(1)})
    y = _XYPoly.monomial(4, 0, 1)
    for m in (1, 3):
        out = wall_crossing_automorphism(ray, y, m)
        assert out.c[(0, 1)] == 1
        assert out.c[(1, 1)] == m  # first binomial term of (1 + X)^m


def test_crossing_fixes_tangent_monomial():
    ray = Ray.make((1, 0), True, {1: Fraction(1)})
    x = _XYPoly.monomial(4, 1, 0)
    assert wall_crossing_automorphism(ray, x, 3).c == {(1, 0): Fraction(1)}


def test_crossing_and_reverse_crossing_compose_to_identity():
    rng = random.Random(83)
    ray = Ray.make((1, 2), False, {1: Fraction(3, 2), 2: Fraction(-1, 3)})
    for _ in range(20):
        elem = _XYPoly(6, {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.choice([-3, -1, 1, 2, 5]))
                           for _ in range(4)})
        elem.c.pop((0, 0), None)
        there = wall_crossing_automorphism(ray, elem, 2, orientation=1)
        back = wall_crossing_automorphism(ray, there, 2, orientation=-1)
        assert back.c == elem.c


def test_ray_requires_primitive_direction():
    with pytest.raises(NonPrimitiveInput):
        Ray.make((2, 4), False, {1: Fraction(1)})


# ---------------------------------------------------------------------------
# Completion


def test_pentagon_single_new_ray():
    diagram = completed(1, 3)
    assert [r.direction for r in diagram.rays] == [(1, 0), (1, 1), (0, 1)]
    central = diagram.central_ray()
    assert central.wall_coeffs() == {1: Fraction(1)}


def test_affine_tower_m2():
    diagram = completed(2, 6)
    walls = {r.direction: r.wall_coeffs() for r in diagram.outgoing()}
    # central function is the expansion of (1 - u)^(-2)
    assert walls[(1, 1)] == {1: Fraction(2), 2: Fraction(3), 3: Fraction(4)}
    # side rays carry simple functions on the (k+1, k) / (k, k+1) towers
    assert walls[(2, 1)] == {1: Fraction(1)}
    assert walls[(1, 2)] == {1: Fraction(1)}
    assert (3, 2) in walls and (2, 3) in walls


def test_consistency_defect_empty_for_completed_diagrams():
    for m in (1, 2, 3, 4, 5):
        assert consistency_defect(completed(m, 5)) == []


def test_completion_is_mirror_symmetric():
    for m in (2, 3):
        walls = {r.direction: r.wall_coeffs() for r in completed(m, 5).outgoing()}
        for (a, b), coeffs in walls.items():
            assert walls[(b, a)] == coeffs


def test_completion_deterministic():
    a = completed(3, 5).to_json()
    b = completed(3, 5).to_json()
    assert a == b


def test_completion_rejects_bad_initial_data():
    with pytest.raises(OrderOverflow):
        complete_to_consistency(initial_diagram(3), 0)
    with pytest.raises(OrderOverflow):
        complete_to_consistency(initial_diagram(3), 10**6)
    bad = ScatteringDiagram(pairing=2, order=0, rays=(
        Ray.make((1, 0), True, {1: Fraction(1)}),
        Ray.make((1, 1), True, {1: Fraction(1)}),
    ))
    with pytest.raises(NonPrimitiveInput):
        complete_to_consistency(bad, 3)
    skewed = ScatteringDiagram(pairing=2, order=0, rays=(
        Ray.make((1, 0), True, {1: Fraction(2)}),
        Ray.make((0, 1), True, {1: Fraction(1)}),
    ))
    with pytest.raises(NonPrimitiveInput):
        complete_to_consistency(skewed, 3)


# ---------------------------------------------------------------------------
# Extraction


def test_pentagon_omega_tower():
    diagram = completed(1, 6)
    assert central_ray_omega(diagram, 1) == 1
    assert central_ray_omega(diagram, 2) == 0
    assert central_ray_omega(diagram, 3) == 0


def test_central_omega_matches_moebius_sum():
    for m in (3, 4):
        diagram = completed(m, 6)
        for d in (1, 2, 3):
            assert central_ray_omega(diagram, d) == dt_kronecker_numeric(m, d)


def test_central_log_matches_closed_form():
    for m in (3, 4):
        diagram = completed(m, 6)
        wall = diagram.central_ray().wall_coeffs()
        log = log_coeffs([Fraction(1)] + [wall.get(j, Fraction(0)) for j in range(1, 4)],
                         Fraction(0))
        for d in (1, 2, 3):
            assert log[d] == central_log_closed_form(m, d)


def test_extraction_preconditions():
    diagram = completed(3, 2)
    assert central_ray_omega(diagram, 1) == 3
    with pytest.raises(InsufficientOrder):
        central_ray_omega(diagram, 2)
    with pytest.raises(DomainError):
        central_ray_omega(diagram, 0)


def test_diagram_json_shape():
    blob = completed(1, 3).to_json()
    assert blob["pairing"] == 1 and blob["order"] == 3
    directions = [tuple(r["direction"]) for r in blob["rays"]]
    assert directions == [(1, 0), (1, 1), (0, 1)]
    assert blob["rays"][1]["wall_function"] == {"1": "1"}
