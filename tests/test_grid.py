import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agediff.errors import InvalidParameter, StabilityViolation
from agediff.grid import GridSpec, build_grid, refine


def test_reference_grid_frozen_values():
    grid = build_grid(1.0, 7, 0.4, 0.2)
    assert grid.m_total == 20
    assert grid.h == 0.05
    assert grid.k == 0.4 * (0.05 * 0.05)
    assert grid.lam == 0.4 * 0.05
    assert grid.n_steps == 200
    assert grid.t_final == 200 * grid.k
    # realized final time reaches the target with the smallest step count
    assert grid.t_final >= 0.2
    assert (grid.n_steps - 1) * grid.k < 0.2


def test_fine_grid_frozen_values():
    grid = build_grid(1.0, 47, 0.4, 0.2)
    assert grid.m_total == 100
    assert grid.h == 0.01
    assert grid.n_steps == 5000


@pytest.mark.parametrize("a_dagger", [1.0, 2.0, 0.8, 16.0])
@pytest.mark.parametrize("m_prime", [1, 2, 7, 30])
def test_mesh_tiles_the_interval(a_dagger, m_prime):
    grid = build_grid(a_dagger, m_prime, 0.1, 0.5)
    assert grid.m_total == 2 * (m_prime + 3)
    assert abs(grid.m_total * grid.h - a_dagger) <= 4.0 * math.ulp(a_dagger)


def test_node_arrays():
    grid = build_grid(1.0, 7, 0.4, 0.2)
    nodes = grid.nodes()
    interior = grid.interior_nodes()
    times = grid.time_levels()
    assert nodes.shape == (grid.m_total + 1,)
    assert interior.shape == (grid.m_total - 1,)
    assert times.shape == (grid.n_steps + 1,)
    assert nodes[0] == 0.0
    assert nodes[1] == grid.h
    assert np.array_equal(interior, nodes[1:-1])
    assert times[0] == 0.0
    assert times[-1] == grid.t_final


def test_refine_halves_h_exactly():
    grid = build_grid(1.0, 7, 0.4, 0.2)
    fine = refine(grid)
    assert fine.m_prime == 2 * grid.m_prime + 3
    assert fine.m_total == 2 * grid.m_total
    assert fine.h == grid.h / 2.0
    assert fine.k == grid.k / 4.0
    assert fine.n_steps == 4 * grid.n_steps
    assert fine.t_final == grid.t_final
    assert fine.a_dagger == grid.a_dagger
    assert fine.r == grid.r


def test_refine_chain_preserves_t_final_bitwise():
    grid = build_grid(1.0, 7, 0.4, 0.8)
    t_final = grid.t_final
    for _ in range(3):
        grid = refine(grid)
        assert grid.t_final == t_final


def test_coarse_nodes_nest_in_fine_nodes():
    grid = build_grid(1.0, 7, 0.4, 0.2)
    fine = refine(grid)
    assert np.array_equal(grid.nodes(), fine.nodes()[::2])
    assert np.array_equal(grid.time_levels(), fine.time_levels()[::4])


def test_stability_boundary_is_accepted():
    # lam + 2r == 1 exactly: h = 16/8 = 2, r = 0.25 -> lam = 0.5
    grid = build_grid(16.0, 1, 0.25, 0.5)
    assert grid.lam + 2.0 * grid.r == 1.0


def test_stability_violation_raises():
    with pytest.raises(StabilityViolation) as excinfo:
        build_grid(1.0, 1, 0.6, 0.1)
    message = str(excinfo.value)
    assert "lam + 2*r" in message
    assert "> 1" in message


def test_refine_can_cross_into_stability():
    # coarsening is what violates the bound; refining a valid grid never does
    grid = build_grid(1.0, 1, 0.45, 0.1)
    assert grid.lam + 2.0 * grid.r <= 1.0
    fine = refine(grid)
    assert fine.lam + 2.0 * fine.r < grid.lam + 2.0 * grid.r


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(a_dagger=0.0, m_prime=7, r=0.4, t_target=0.2),
        dict(a_dagger=-1.0, m_prime=7, r=0.4, t_target=0.2),
        dict(a_dagger=math.inf, m_prime=7, r=0.4, t_target=0.2),
        dict(a_dagger=1.0, m_prime=0, r=0.4, t_target=0.2),
        dict(a_dagger=1.0, m_prime=7.0, r=0.4, t_target=0.2),
        dict(a_dagger=1.0, m_prime=True, r=0.4, t_target=0.2),
        dict(a_dagger=1.0, m_prime=7, r=0.0, t_target=0.2),
        dict(a_dagger=1.0, m_prime=7, r=math.nan, t_target=0.2),
        dict(a_dagger=1.0, m_prime=7, r=0.4, t_target=0.0),
        dict(a_dagger=1.0, m_prime=7, r=0.4, t_target=-0.5),
        dict(a_dagger=1.0, m_prime=7, r=0.4, t_target=1e308),
        dict(a_dagger=1.0, m_prime=7, r=0.4, t_target=1e300),
    ],
)
def test_build_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(InvalidParameter):
        build_grid(**kwargs)


def test_step_count_beyond_numpy_array_limit_is_rejected():
    # numpy caps an array at intp-max bytes, so n_steps + 1 float64 levels must fit
    limit = np.iinfo(np.intp).max // 8
    assert GridSpec(1.0, 7, 0.4, limit - 1).n_steps == limit - 1
    with pytest.raises(InvalidParameter, match="more levels than numpy can allocate"):
        GridSpec(1.0, 7, 0.4, limit)
    with pytest.raises(InvalidParameter, match="n_steps = 1e\\+303"):
        build_grid(1.0, 7, 0.4, 1e300)


@pytest.mark.parametrize("n_steps", [0, True, 10.0])
def test_gridspec_rejects_bad_step_counts(n_steps):
    with pytest.raises(InvalidParameter, match="n_steps"):
        GridSpec(1.0, 7, 0.4, n_steps)


def test_gridspec_stores_only_its_four_inputs():
    assert [field.name for field in dataclasses.fields(GridSpec)] == ["a_dagger", "m_prime", "r", "n_steps"]
    grid = dataclasses.replace(build_grid(1.0, 7, 0.4, 0.2), n_steps=10)
    assert grid == GridSpec(1.0, 7, 0.4, 10)
    assert grid.t_final == 10 * grid.k
    assert np.array_equal(grid.time_levels(), np.arange(11) * grid.k)


def reference_ladder(a_dagger, m_prime, r, t_target, levels):
    """(m_total, h, k, lam, n_steps, t_final) per rung, field by field as the
    nine-field mesh of earlier versions computed them."""
    a_dagger, r, t_target = float(a_dagger), float(r), float(t_target)
    m_total = 2 * (m_prime + 3)
    h = a_dagger / m_total
    k = r * (h * h)
    n_steps = math.ceil(t_target / k)
    rungs = [(m_total, h, k, r * h, n_steps, n_steps * k)]
    for _ in range(levels - 1):
        m_prime = 2 * m_prime + 3
        m_total = 2 * (m_prime + 3)
        h = a_dagger / m_total
        k = r * (h * h)
        n_steps = 4 * n_steps
        rungs.append((m_total, h, k, r * h, n_steps, n_steps * k))
    return rungs


@settings(max_examples=200, deadline=None)
@given(
    a_dagger=st.floats(0.05, 50.0),
    m_prime=st.integers(1, 200),
    r=st.floats(1e-4, 0.5),
    t_target=st.floats(1e-3, 5.0),
)
def test_derived_fields_match_the_field_by_field_arithmetic(a_dagger, m_prime, r, t_target):
    try:
        grid = build_grid(a_dagger, m_prime, r, t_target)
    except StabilityViolation:
        assume(False)
    for expected in reference_ladder(a_dagger, m_prime, r, t_target, levels=4):
        derived = (grid.m_total, grid.h, grid.k, grid.lam, grid.n_steps, grid.t_final)
        assert list(map(repr, derived)) == list(map(repr, expected))
        grid = refine(grid)


def test_gridspec_equality_and_hash():
    a = build_grid(1.0, 7, 0.4, 0.2)
    b = build_grid(1.0, 7, 0.4, 0.2)
    assert a == b
    assert hash(a) == hash(b)
    assert refine(a) != a
