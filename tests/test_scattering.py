"""Tropical-vertex engine: consistency, pentagon, anchors, extraction."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from wallcross.algebra import GradedSeries, RationalFunc, log_coeffs, series_exp, series_log
from wallcross.cli import main
from wallcross.combinat import plethystic_exp, plethystic_log
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
    central_log_closed_form,
    central_ray_omega,
    complete_to_consistency,
    consistency_defect,
    wall_crossing_automorphism,
)


def completed(m: int, order: int) -> ScatteringDiagram:
    return complete_to_consistency(m, order)


# ---------------------------------------------------------------------------
# Wall crossings


def test_crossing_of_transverse_generator():
    # f = 1 + X on the horizontal line sends Y to Y * (1 + X)^(+-m)
    for m in (1, 3):
        out = wall_crossing_automorphism((1, 0), {1: 1}, {(0, 1): 1}, 4, m)
        assert out[(0, 1)] == 1
        assert out[(1, 1)] == m  # first binomial term of (1 + X)^m


def test_crossing_fixes_tangent_monomial():
    assert wall_crossing_automorphism((1, 0), {1: 1}, {(1, 0): 1}, 4, 3) == {(1, 0): 1}


def test_crossing_and_reverse_crossing_compose_to_identity():
    rng = random.Random(83)
    wall = {1: Fraction(3, 2), 2: Fraction(-1, 3)}
    for _ in range(20):
        elem = {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.choice([-3, -1, 1, 2, 5]))
                for _ in range(4)}
        elem.pop((0, 0), None)
        there = wall_crossing_automorphism((1, 2), wall, elem, 6, 2, orientation=1)
        back = wall_crossing_automorphism((1, 2), wall, there, 6, 2, orientation=-1)
        assert back == elem


def test_crossing_of_integral_ray_stays_in_int():
    # the completion engine runs on ints; an integral wall must not bring Fractions in
    wall = {1: 3, 2: -5}
    elem = {(1, 0): 2, (0, 1): -1, (2, 1): 7}
    for orientation in (1, -1):
        out = wall_crossing_automorphism((1, 2), wall, elem, 8, 3, orientation)
        assert len(out) > len(elem)
        assert all(type(v) is int for v in out.values())


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
        assert consistency_defect(completed(m, 12)) == []


def test_consistency_defect_finds_a_perturbed_wall():
    diagram = complete_to_consistency(3, 8)
    rays = []
    for ray in diagram.rays:
        if ray.direction == (1, 2):
            coeffs = ray.wall_coeffs()
            coeffs[1] += 1
            ray = Ray.make(ray.direction, ray.incoming, coeffs)
        rays.append(ray)
    defects = consistency_defect(ScatteringDiagram(diagram.pairing, diagram.order, tuple(rays)))
    assert defects
    assert min(p + q for (p, q), _ in defects) == 3


def test_completion_is_mirror_symmetric():
    # covers every non-central ray, not just the central one read by the extraction
    for m in (1, 2, 3, 4):
        walls = {r.direction: r.wall_coeffs() for r in completed(m, 12).outgoing()}
        for (a, b), coeffs in walls.items():
            assert walls[(b, a)] == coeffs


def test_completion_deterministic():
    a = completed(3, 5).to_json()
    b = completed(3, 5).to_json()
    assert a == b


def test_completion_rejects_bad_initial_data():
    with pytest.raises(OrderOverflow):
        complete_to_consistency(3, 0)
    with pytest.raises(OrderOverflow):
        complete_to_consistency(3, 10**6)
    with pytest.raises(OrderOverflow):
        complete_to_consistency(0, 3)


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
        log = log_coeffs([Fraction(1)] + [wall.get(j, Fraction(0)) for j in range(1, 4)])
        for d in (1, 2, 3):
            assert log[d] == central_log_closed_form(m, d)


def test_central_extraction_builds_no_rational_function(monkeypatch):
    # the classical engine's walls are ints, so its whole read-out stays in Fractions
    diagram = completed(3, 12)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a RationalFunc was built")

    monkeypatch.setattr(RationalFunc, "__init__", refuse)
    for d in range(1, 7):
        omega = central_ray_omega(diagram, d)
        assert type(omega) is Fraction and omega == dt_kronecker_numeric(3, d)
    s = GradedSeries(5, {d: Fraction(d - 3, d) for d in range(1, 6)})
    assert series_log(series_exp(s)) == s
    assert plethystic_log(plethystic_exp(s)) == s


def test_extraction_preconditions():
    diagram = completed(3, 2)
    assert central_ray_omega(diagram, 1) == 3
    with pytest.raises(InsufficientOrder):
        central_ray_omega(diagram, 2)
    with pytest.raises(DomainError):
        central_ray_omega(diagram, 0)


def test_scatter_order20_matches_golden(capsys):
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "goldens" / "scatter_m3_order20.json"
    assert main(["scatter", "--m", "3", "--order", "20", "--out", "json"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_diagram_json_shape():
    blob = completed(1, 3).to_json()
    assert blob["pairing"] == 1 and blob["order"] == 3
    directions = [tuple(r["direction"]) for r in blob["rays"]]
    assert directions == [(1, 0), (1, 1), (0, 1)]
    assert blob["rays"][1]["wall_function"] == {"1": "1"}
