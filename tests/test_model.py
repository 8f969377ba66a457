import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import product
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrenfest import cli, hitting, model
from ehrenfest.hitting import HittingQuery
from ehrenfest.oracle import EnumeratedChain, solve_raw_moments, solve_transform_u
from ehrenfest.resolvent import kernel_row
from ehrenfest.model import (
    ModelParams,
    ProductPermutation,
    SetDescriptor,
    SetNotSymmetricError,
    overlap,
    parse_set,
    symmetry_defect,
)
from reference import (
    explicit_members,
    neighbor_states,
    occupancy_histogram_by_urn,
    overlap_profile,
    product_semigroup,
    single_ball_generator,
    single_ball_semigroup,
    symmetric_sets,
    transition_prob,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 3)
    with pytest.raises(ValueError):
        ModelParams(3, 0)
    assert ModelParams(3, 2).state_count == 9


def test_overlap_examples():
    assert overlap((1, 2, 3), (1, 3, 3)) == 2
    assert overlap((1, 2, 3), (1, 2, 3)) == 3
    assert overlap((1, 1), (2, 2)) == 0
    with pytest.raises(ValueError):
        overlap((1, 2), (1, 2, 3))


def test_transition_prob_examples():
    p = ModelParams(3, 2)
    assert transition_prob(p, (1, 1), (1, 2)) == F(1, 4)
    assert transition_prob(p, (1, 1), (1, 1)) == 0
    assert transition_prob(ModelParams(2, 3), (1, 1, 1), (1, 2, 1)) == F(1, 3)


@pytest.mark.parametrize("n,m", [(2, 10), (3, 5), (4, 3), (10, 2), (99, 1)])
def test_transition_rows_sum_to_one_exactly(n, m):
    params = ModelParams(n, m)
    assert params.state_count <= 10**4 or n == 99
    rng = random.Random(n * 100 + m)
    states = [tuple(rng.randrange(1, n + 1) for _ in range(m)) for _ in range(50)]
    for x in states:
        nbrs = list(neighbor_states(params, x))
        assert len(nbrs) == len(set(nbrs)) == m * (n - 1)
        assert sum(transition_prob(params, x, y) for y in nbrs) == 1


def test_transition_row_full_enumeration():
    params = ModelParams(3, 3)
    states = [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)]
    x = (1, 2, 3)
    assert sum(transition_prob(params, x, y) for y in states) == 1


# --- semigroups ------------------------------------------------------------


def test_single_ball_semigroup_values():
    p = ModelParams(3, 1)
    assert single_ball_semigroup(p, 0.0, 1, 1) == 1.0
    assert single_ball_semigroup(p, 0.0, 1, 2) == 0.0
    t = (2 / 3) * math.log(2)  # makes the decay factor exactly 1/2
    assert math.isclose(single_ball_semigroup(p, t, 1, 1), 2 / 3, rel_tol=1e-12)
    assert math.isclose(single_ball_semigroup(p, t, 1, 2), 1 / 6, rel_tol=1e-12)
    assert math.isclose(single_ball_semigroup(p, 200.0, 2, 2), 1 / 3, rel_tol=1e-9)
    assert math.isclose(single_ball_semigroup(p, 200.0, 2, 1), 1 / 3, rel_tol=1e-9)
    with pytest.raises(ValueError):
        single_ball_semigroup(p, -0.1, 1, 1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_single_ball_backward_equation(n):
    # d/dt p_t(1,j) == sum_k q(1,k) p_t(k,j), checked by central difference
    p = ModelParams(n, 1)
    rates = single_ball_generator(p)
    assert all(sum(row) == 0 for row in rates)
    for t in (0.05, 0.3, 1.0, 2.5):
        eps = 1e-6
        for j in (1, 2):
            lhs = (
                single_ball_semigroup(p, t + eps, 1, j) - single_ball_semigroup(p, t - eps, 1, j)
            ) / (2 * eps)
            rhs = sum(float(rates[0][k - 1]) * single_ball_semigroup(p, t, k, j) for k in range(1, n + 1))
            assert abs(lhs - rhs) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_single_ball_chapman_kolmogorov(n):
    p = ModelParams(n, 1)
    for t, s in [(0.2, 0.7), (1.1, 0.4), (0.05, 2.0)]:
        for i, j in [(1, 1), (1, 2)]:
            composed = sum(
                single_ball_semigroup(p, t, i, k) * single_ball_semigroup(p, s, k, j)
                for k in range(1, n + 1)
            )
            assert abs(composed - single_ball_semigroup(p, t + s, i, j)) < 1e-12


def test_product_semigroup_identity_and_rows():
    p = ModelParams(3, 2)
    assert product_semigroup(p, 0.0, (1, 2), (1, 2)) == 1.0
    assert product_semigroup(p, 0.0, (1, 2), (1, 3)) == 0.0
    states = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    for t in (0.3, 1.7):
        total = sum(product_semigroup(p, t, (1, 2), z) for z in states)
        assert abs(total - 1.0) < 1e-12
    p23 = ModelParams(2, 3)
    states = [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]
    total = sum(product_semigroup(p23, 0.9, (1, 2, 1), z) for z in states)
    assert abs(total - 1.0) < 1e-12


def test_product_semigroup_factorizes():
    p = ModelParams(4, 3)
    x, z = (1, 2, 3), (1, 4, 3)
    t = 0.8
    expected = math.prod(single_ball_semigroup(p, t, a, b) for a, b in zip(x, z))
    assert math.isclose(product_semigroup(p, t, x, z), expected, rel_tol=1e-12)


# --- descriptors -----------------------------------------------------------


def test_materialize_diagonal():
    assert SetDescriptor.diagonal().materialize(ModelParams(3, 2)) == [(1, 1), (2, 2), (3, 3)]


def test_materialize_count():
    got = SetDescriptor.count(1).materialize(ModelParams(2, 2))
    assert got == [(1, 2), (2, 1)]
    p = ModelParams(3, 4)
    for h in range(5):
        for r in (1, 2, 3):  # count:h:r holds the states with exactly h balls in urn r
            members = SetDescriptor.count(h, r).materialize(p)
            assert len(members) == math.comb(4, h) * 2 ** (4 - h)
            assert members == [x for x in product(range(1, 4), repeat=4) if x.count(r) == h]


def test_materialize_distinct():
    assert SetDescriptor.distinct().materialize(ModelParams(2, 2)) == [(1, 2), (2, 1)]
    p = ModelParams(4, 2)
    assert len(SetDescriptor.distinct().materialize(p)) == 12  # 4!/2!


def test_materialize_errors():
    with pytest.raises(ValueError):
        SetDescriptor.distinct().materialize(ModelParams(2, 3))
    with pytest.raises(ValueError):
        SetDescriptor.count(5).materialize(ModelParams(3, 2))
    with pytest.raises(ValueError):
        SetDescriptor.explicit([(1, 1), (1, 1)]).materialize(ModelParams(2, 2))
    with pytest.raises(ValueError):
        SetDescriptor.explicit([]).materialize(ModelParams(2, 2))
    with pytest.raises(ValueError):
        SetDescriptor.pair((1, 1), (1, 1)).materialize(ModelParams(2, 2))
    with pytest.raises(ValueError):
        SetDescriptor.singleton((1, 9)).materialize(ModelParams(3, 2))
    with pytest.raises(ValueError, match="unknown set descriptor kind 'ring'"):
        SetDescriptor("ring").validate(ModelParams(3, 2))
    for bad in (SetDescriptor.count(5), SetDescriptor.count(-1), SetDescriptor.count(1, 4),
                SetDescriptor.count(1, 0), SetDescriptor.singleton((1, 2, 3)), SetDescriptor.singleton((1, 2, 3, 4))):
        with pytest.raises(ValueError):
            bad.validate(ModelParams(3, 4))


def test_materialize_counts_each_kind_before_listing_it(monkeypatch):
    p = ModelParams(4, 3)
    kinds = [SetDescriptor.singleton((1, 2, 3)), SetDescriptor.pair((1, 2, 3), (4, 4, 4)), SetDescriptor.diagonal(),
             SetDescriptor.distinct(), SetDescriptor.explicit([(1, 1, 1), (2, 2, 2), (1, 2, 3)])]
    kinds += [SetDescriptor.count(h, r) for h in range(4) for r in (1, 4)]
    for d in kinds:
        size = len(d.materialize(p))
        monkeypatch.setattr(model, "MAX_LISTED", size)  # a set at the bound is listed
        assert len(d.materialize(p)) == size
        monkeypatch.setattr(model, "MAX_LISTED", size - 1)
        with pytest.raises(ValueError, match=f"set has {size} members, more than MAX_LISTED = {size - 1}"):
            d.materialize(p)
        monkeypatch.undo()


_HUGE_LISTS = """
from ehrenfest.model import ModelParams, SetDescriptor
for d, p in [(SetDescriptor.distinct(), ModelParams(60, 20)), (SetDescriptor.count(100), ModelParams(10**5, 200)),
             (SetDescriptor.diagonal(), ModelParams(2**22 + 1, 1))]:
    try:
        d.materialize(p)
    except ValueError as exc:
        print(exc)
"""


def test_materialize_refuses_a_huge_set_before_listing_it():
    # about 10**34 distinct members at N=60, M=20 and 10**1000 count:100 members at N=10**5, M=200: listing
    # either runs until it is killed, so it runs in a child that the timeout ends
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _HUGE_LISTS], capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"the distinct set has {math.perm(60, 20)} members, more than MAX_LISTED = {2**22} to list"
    assert lines[1].startswith(f"the count set has {math.comb(200, 100) * (10**5 - 1) ** 100} members")
    assert lines[2] == f"the diagonal set has {2**22 + 1} members, more than MAX_LISTED = {2**22} to list"


# each of the six places that reads coordinates from a caller, given coordinate c
_READS_COORDINATES = {
    "check_state": lambda c: ModelParams(3, 2).check_state((c, 1)),
    "singleton": lambda c: SetDescriptor.singleton((c, 1)).states,
    "pair": lambda c: SetDescriptor.pair((1, 1), (c, 1)).states,
    "count": lambda c: (SetDescriptor.count(c).count_overlap, SetDescriptor.count(1, c).reference_urn),
    "explicit": lambda c: SetDescriptor.explicit([(1, 1), (c, 1)]).states,
    # the class constructor reads nothing: the member table does, when the set is validated
    "explicit-table": lambda c: SetDescriptor("explicit", states=((1, 1), (c, 1))).validate(ModelParams(3, 2)),
}


@pytest.mark.parametrize("bad", [1.5, 2.0, 2.7, "2", True, False, np.float64(2.0), np.True_, None], ids=repr)
@pytest.mark.parametrize("reader", _READS_COORDINATES)
def test_non_integer_coordinates_are_refused_not_truncated(reader, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        _READS_COORDINATES[reader](bad)


@pytest.mark.parametrize("reader", _READS_COORDINATES)
def test_numpy_integer_coordinates_read_as_ints(reader):
    # repr tells np.int64(2) from 2
    assert repr(_READS_COORDINATES[reader](np.int64(2))) == repr(_READS_COORDINATES[reader](2))


@pytest.mark.parametrize("bad", [3.0, 2.5, "3", True, np.float64(3.0), None], ids=repr)
@pytest.mark.parametrize("field", ["urns", "balls"])
def test_non_integer_sizes_are_refused_not_truncated(field, bad):
    # ModelParams(3.0, 2) once built and failed later inside math.gcd, (3, True) built a one-ball
    # model and (3, 2.5) counted 15.59 states
    with pytest.raises(ValueError, match=f"{field} {re.escape(repr(bad))} is not an integer"):
        ModelParams(**{"urns": 3, "balls": 2, field: bad})
    p = ModelParams(np.int64(3), np.int32(2))
    assert (repr(p.urns), repr(p.balls), p.state_count) == ("3", "2", 9)


def test_the_engine_refuses_a_float_coordinate_it_once_truncated():
    with pytest.raises(ValueError, match="2.7"):
        HittingQuery(ModelParams(3, 2), (1, 1), SetDescriptor.singleton((2.7, 2)))
    with pytest.raises(ValueError, match="1.5"):
        SetDescriptor.explicit([(1.5, 2.0), (2.9, 1.0)])
    with pytest.raises(ValueError, match="1.5"):
        SetDescriptor("explicit", states=((1.5, 2), (2.9, 1))).validate(ModelParams(3, 2))


# --- symmetry test ---------------------------------------------------------


def test_symmetric_family_examples():
    assert symmetry_defect([(1, 1), (2, 2), (3, 3)]) is None
    assert symmetry_defect([(1, 1), (2, 2), (1, 2)]) is not None
    defect = symmetry_defect([(1, 1), (2, 2), (1, 2)])
    (y1, hist1), (y2, hist2) = defect
    assert {hist1, hist2} == {(1, 1, 1), (0, 2, 1)}
    with pytest.raises(ValueError):
        symmetry_defect([])


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4), st.data())
def test_any_two_point_set_is_symmetric(n, m, data):
    state = st.tuples(*[st.integers(min_value=1, max_value=n) for _ in range(m)])
    a = data.draw(state)
    b = data.draw(state.filter(lambda s: s != a))
    assert symmetry_defect([a, b]) is None


def _grid():
    out = []
    for n in range(2, 7):
        for m in range(1, 7):
            if n**m <= 4096:
                out.append((n, m))
    return out


def _descriptors(n, m):
    rng = random.Random(11 * n + m)
    y = tuple(rng.randrange(1, n + 1) for _ in range(m))
    kinds = [SetDescriptor.singleton(y), SetDescriptor.diagonal()]
    z = tuple(rng.randrange(1, n + 1) for _ in range(m))
    if z != y:
        kinds.append(SetDescriptor.pair(y, z))
    for h in {0, m // 2, m}:
        kinds.append(SetDescriptor.count(h))
    if m <= n:
        kinds.append(SetDescriptor.distinct())
    return kinds


@pytest.mark.parametrize("d", [SetDescriptor.singleton((2,) * 200), SetDescriptor.count(150)])
def test_one_sphere_member_costs_o_of_n_plus_m(d):
    # the query builds one member: it must not list the other urns of every ball first
    tracemalloc.start()
    try:
        p = ModelParams(10**4, 200)
        first = hitting._reference(p, d, d.validate(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 200
    assert peak < 2 * 2**20
    assert hitting._histogram(p, d, d.validate(p), first)[200] == 1  # only a member agrees with it everywhere


@pytest.mark.parametrize("n,m", _grid())
def test_all_descriptor_kinds_are_symmetric(n, m):
    params = ModelParams(n, m)
    for d in _descriptors(n, m):
        assert symmetry_defect(d.materialize(params)) is None, d


def _brute_hist(y, states, m):
    counts = Counter(overlap(y, z) for z in states)
    return tuple(counts[k] for k in range(m + 1))


@pytest.mark.parametrize("n,m", _grid())
def test_query_histograms_match_brute_force(n, m):
    params = ModelParams(n, m)
    rng = random.Random(7 * n + m)
    x = tuple(rng.randrange(1, n + 1) for _ in range(m))
    kinds = _descriptors(n, m)
    tau = ProductPermutation.random(params, rng)
    kinds.append(SetDescriptor.explicit(tau.apply_set(kinds[-1].materialize(params))))
    counts = [SetDescriptor.count(h, r) for h in range(m + 1) for r in range(1, n + 1)]
    for d in kinds + counts:
        states = d.materialize(params)
        starts = [x] + [tuple(rng.randrange(1, n + 1) for _ in range(m)) for _ in range(3)]
        starts.append(states[rng.randrange(len(states))])
        for start in starts:
            q = HittingQuery(params, start, d)
            # the c_k rows are a basis of the degree-M polynomials: equal rows, equal histograms
            assert q.rows[0] == kernel_row(params, _brute_hist(start, states, m)), (d, start)
            # a member has the reference histogram, and only a member counts itself at overlap M
            assert (q.rows[0] == q.rows[1]) == (start in states), (d, start)
        ref_hist = _brute_hist(states[rng.randrange(len(states))], states, m)
        assert q.rows[1] == kernel_row(params, ref_hist), d
        if d in kinds:
            for y in states:
                assert _brute_hist(y, states, m) == ref_hist, d


@pytest.mark.parametrize("n,m", [(2, 9), (3, 40), (7, 200), (9, 9), (50, 20), (300, 60), (10**4, 200)])
def test_occupancy_histograms_equal_the_urn_by_urn_count(n, m):
    # random starts, spread over all urns or crowded into a few, so that urns hold several balls
    params = ModelParams(n, m)
    rng = random.Random(1009 * n + m)
    kinds = {"diagonal": (1,) * m, "distinct": tuple(range(1, m + 1))} if m <= n else {"diagonal": (1,) * m}
    for crowd in (n, 2, max(2, m // 3)):
        x = tuple(rng.randrange(1, min(crowd, n) + 1) for _ in range(m))
        for kind, first in kinds.items():
            d = SetDescriptor(kind)
            hists = hitting._overlap_histograms(params, d, x, d.validate(params))
            assert hists == (occupancy_histogram_by_urn(params, kind, x),
                             occupancy_histogram_by_urn(params, kind, first)), (kind, x)


def test_diagonal_histograms_at_the_largest_model_take_no_pass_per_urn():
    # both histograms read one tally of a state's balls, not one pass over the state per urn
    params = ModelParams(10**5, 200)
    x = tuple(range(1, 201))
    started = time.perf_counter()
    d = SetDescriptor.diagonal()
    hists = hitting._overlap_histograms(params, d, x, d.validate(params))
    assert time.perf_counter() - started < 0.1
    assert hists == ((10**5 - 200, 200) + (0,) * 199, (10**5 - 1,) + (0,) * 199 + (1,))


@st.composite
def _descriptor_and_start(draw):
    """A chain with N, M <= 5, a target set of any kind on it, and a start."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    state = st.tuples(*[st.integers(1, n) for _ in range(m)])
    kinds = [
        state.map(SetDescriptor.singleton),
        st.tuples(state, state).filter(lambda p: p[0] != p[1]).map(lambda p: SetDescriptor.pair(*p)),
        st.just(SetDescriptor.diagonal()),
        st.builds(SetDescriptor.count, st.integers(0, m), st.integers(1, n)),
        st.lists(state, min_size=1, max_size=8, unique=True).map(SetDescriptor.explicit),
    ]
    if m <= n:
        kinds.append(st.just(SetDescriptor.distinct()))
    return ModelParams(n, m), draw(st.one_of(kinds)), draw(state)


@settings(max_examples=300, deadline=None)
@given(_descriptor_and_start())
def test_overlap_histogram_counts_what_materialize_lists(case):
    params, d, x = case
    states = d.materialize(params)
    try:
        hists = hitting._overlap_histograms(params, d, x, d.validate(params))
    except SetNotSymmetricError:  # only an explicit set is tested, and only an asymmetric one fails
        assert d.kind == "explicit" and symmetry_defect(states) is not None
        return
    assert hists[0] == _brute_hist(x, states, params.balls)
    assert hists[1] == _brute_hist(states[0], states, params.balls)


def _loop_symmetry_defect(states):
    """Reference: compare overlap histograms element by element."""
    m = len(states[0])
    ref_hist = _brute_hist(states[0], states, m)
    for y in states[1:]:
        hist = _brute_hist(y, states, m)
        if hist != ref_hist:
            return (states[0], ref_hist), (y, hist)
    return None


@pytest.mark.parametrize("n,m,h", [(3, 4, 2), (3, 5, 1), (4, 3, 0)])
def test_symmetry_defect_matches_profile_loop(n, m, h, monkeypatch):
    params = ModelParams(n, m)
    rng = random.Random(n + m + h)
    tau = ProductPermutation.random(params, rng)
    permuted = tau.apply_set(SetDescriptor.count(h).materialize(params))
    rng.shuffle(permuted)
    outside = next(x for x in product(range(1, n + 1), repeat=m) if x not in permuted)
    monkeypatch.setattr(model, "GRID_CELL_COST", 2**64)  # the pairwise count, whose blocks are tested here
    # one block, then blocks of 1 and 3 rows: the first differing member sits in a later block
    for rows in (len(permuted), 1, 3):
        monkeypatch.setattr(model, "BLOCK_PAIRS", rows * len(permuted))
        assert symmetry_defect(permuted) is None
        for pos in (0, len(permuted) // 2, len(permuted) - 1):
            swapped = permuted[:pos] + [outside] + permuted[pos + 1:]
            defect = symmetry_defect(swapped)
            assert defect is not None
            assert defect == _loop_symmetry_defect(swapped)


def _spy_agreement_counts(monkeypatch):
    """The ``(lo, hi)`` blocks of every pairwise count that follows, in call order."""
    blocks = []
    real = model._agreement_counts

    def spy(columns, lo, hi):
        blocks.append((lo, hi))
        return real(columns, lo, hi)

    monkeypatch.setattr(model, "_agreement_counts", spy)
    return blocks


def test_symmetry_defect_stops_at_the_first_differing_block(monkeypatch):
    # 2000 random members over 1000 urns span nearly 1000 values a column: a grid of some 1000**3 cells is
    # past MAX_GRID_CELLS, so the count is pairwise
    rng = random.Random(8000)
    states = [tuple(rng.randrange(1, 1001) for _ in range(3)) for _ in range(2000)]
    blocks = _spy_agreement_counts(monkeypatch)
    defect = symmetry_defect(states)
    assert defect == _loop_symmetry_defect(states)
    assert blocks == [(0, model.BLOCK_PAIRS // len(states))]


def test_count8_list_takes_the_grid(monkeypatch):
    # the 12870-member count:8 set at N=2, M=16 written out as a list: 2**16 grid cells, 12870**2 member pairs
    states = SetDescriptor.count(8).materialize(ModelParams(2, 16))
    blocks = _spy_agreement_counts(monkeypatch)
    assert symmetry_defect(states) is None
    assert blocks == []


def test_few_members_over_many_urns_are_counted_pairwise(monkeypatch):
    # 10 members over 1000 urns at M=2: a grid of 901**2 cells fits MAX_GRID_CELLS with its polynomial axis,
    # but its passes cost some 5 * 10**4 times the 10**2 * 2 pair coordinates
    states = [(a, 1001 - a) for a in range(1, 1001, 100)]
    assert 901**2 * 3 <= model.MAX_GRID_CELLS
    blocks = _spy_agreement_counts(monkeypatch)
    assert symmetry_defect(states) is None
    assert blocks == [(0, len(states))]


def _spy_paths(monkeypatch):
    """The names of the symmetry test's paths, in call order, for every test that follows."""
    calls = []
    for name in ("_grid_histograms", "_agreement_counts"):
        real = getattr(model, name)
        monkeypatch.setattr(model, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    return calls


def test_a_set_past_the_pairwise_bound_takes_the_grid(monkeypatch):
    # the 10 members of the test above, then one of them moved by one ball: the pairwise count finds the witnesses;
    # with MAX_PAIR_COORDS below their 200 pair coordinates, the grid, which costs more, finds the same ones
    states = [(a, 1001 - a) for a in range(1, 1001, 100)]
    moved = states[:5] + [(states[5][0], states[2][1])] + states[6:]
    calls = _spy_paths(monkeypatch)
    want = symmetry_defect(moved)
    assert want == _loop_symmetry_defect(moved) and want is not None
    assert calls == ["_agreement_counts"]
    monkeypatch.setattr(model, "MAX_PAIR_COORDS", 199)
    assert symmetry_defect(states) is None
    assert symmetry_defect(moved) == want
    assert calls == ["_agreement_counts", "_grid_histograms", "_grid_histograms"]


@pytest.mark.parametrize("pair_bound,grid_bound,path", [
    (18, 27, "_agreement_counts"), (18, 26, "_agreement_counts"), (17, 27, "_grid_histograms"), (17, 26, None),
])
def test_each_bound_admits_its_path_up_to_its_value(pair_bound, grid_bound, path, monkeypatch):
    # the diagonal at N=3, M=2: 18 pair coordinates, a grid of 27 cells that costs more than they do
    monkeypatch.setattr(model, "MAX_PAIR_COORDS", pair_bound)
    monkeypatch.setattr(model, "MAX_GRID_CELLS", grid_bound)
    calls = _spy_paths(monkeypatch)
    if path:
        assert symmetry_defect([(1, 1), (2, 2), (3, 3)]) is None
    else:
        with pytest.raises(ValueError, match=r"^the symmetry test needs 18 member-pair coordinates \(3\^2 members x 2\), "
                           r"more than MAX_PAIR_COORDS = 17, and a product grid of 27 cells, "
                           r"more than MAX_GRID_CELLS = 26$"):
            symmetry_defect([(1, 1), (2, 2), (3, 3)])
    assert calls == ([path] if path else [])


def test_a_set_past_both_bounds_is_refused_before_either_path(monkeypatch):
    # the 65537 members (i, 7919 i mod 65537 + 1): 65537**2 * 2 pair coordinates and a grid of 3 * 65537**2 cells
    i = np.arange(1, 65538)
    table = np.stack([i, 7919 * i % 65537 + 1], axis=1)
    calls = _spy_paths(monkeypatch)
    with pytest.raises(ValueError, match=f"needs {65537**2 * 2} member-pair coordinates .* more than MAX_PAIR_COORDS"
                                         f" = {2**32}, and a product grid of {3 * 65537**2} cells"):
        symmetry_defect(table)
    assert calls == []


def test_a_list_past_the_pairwise_bound_answers_as_its_kind(capsys, monkeypatch, tmp_path):
    # the diagonal at N=3, M=2 written out as a list, with MAX_PAIR_COORDS below its 18 pair coordinates
    monkeypatch.setattr(model, "MAX_PAIR_COORDS", 17)
    (tmp_path / "diagonal.json").write_text("[[1, 1], [2, 2], [3, 3]]")
    means = []
    for target in (f"explicit:@{tmp_path / 'diagonal.json'}", "diagonal"):
        assert cli.main(["exact", "--N", "3", "--M", "2", "--start", "1,2", "--set", target]) == 0
        means.append(json.loads(capsys.readouterr().out)["results"]["mean"])
    assert means[0] == means[1]


def _symmetric_lists(n, m, rng):
    """Permuted ``count``, ``distinct`` and diagonal lists of at most 200 members on the N, M chain, shuffled."""
    params = ModelParams(n, m)
    small = [h for h in range(m + 1) if math.comb(m, h) * (n - 1) ** (m - h) <= 200]
    kinds = [SetDescriptor.count(rng.choice(small), rng.randint(1, n)), SetDescriptor.diagonal()]
    if m <= n and math.perm(n, m) <= 200:
        kinds.append(SetDescriptor.distinct())
    for d in kinds:
        states = ProductPermutation.random(params, rng).apply_set(d.materialize(params))
        rng.shuffle(states)
        yield states


def _both_paths(states, monkeypatch):
    """The symmetry test's answer on ``states`` with the grid forced, then with the pairwise count forced."""
    answers = []
    for cost, path in ((0, "_grid_histograms"), (2**64, "_agreement_counts")):
        calls = []
        real = getattr(model, path)
        monkeypatch.setattr(model, "GRID_CELL_COST", cost)
        monkeypatch.setattr(model, path, lambda *args: calls.append(1) or real(*args))
        answers.append(symmetry_defect(states))
        monkeypatch.undo()
        assert calls, path
    return answers


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 6) for m in range(1, 7)])
def test_grid_and_pairwise_paths_match_the_profile_loop(n, m, monkeypatch):
    rng = random.Random(100 * n + m)
    space = list(product(range(1, n + 1), repeat=m))
    found = 0
    for states in _symmetric_lists(n, m, rng):
        assert _both_paths(states, monkeypatch) == [None, None]
        outside = [x for x in space if x not in states]
        if outside:  # one member swapped for a state outside the set, and that state put in as well
            swapped = list(states)
            swapped[rng.randrange(len(states))] = rng.choice(outside)
            for changed in (swapped, states + [rng.choice(outside)]):
                want = _loop_symmetry_defect(changed)
                assert _both_paths(changed, monkeypatch) == [want, want]
                found += want is not None
    assert found or m == 1  # every set of one-ball states is symmetric


def test_grid_and_pairwise_paths_count_repeated_members(monkeypatch):
    diagonal = [(1, 1), (2, 2), (3, 3)]
    for states in (diagonal + [(1, 1)], diagonal * 2, [(2, 3, 1), (2, 3, 1), (1, 2, 2)], [(4, 4)] * 3):
        want = _loop_symmetry_defect(states)
        assert _both_paths(states, monkeypatch) == [want, want], states
        assert _both_paths(np.array(states), monkeypatch) == [want, want], states
    assert _loop_symmetry_defect(diagonal * 2) is None
    assert _loop_symmetry_defect(diagonal + [(1, 1)]) is not None


def test_grid_and_pairwise_paths_read_columns_that_do_not_start_at_1(monkeypatch):
    rng = random.Random(12)
    params = ModelParams(4, 3)
    lists = [ProductPermutation.random(params, rng).apply_set(SetDescriptor.count(1).materialize(params)),
             [(1, 1, 2), (2, 2, 2), (1, 3, 3), (4, 1, 1)]]
    for states in lists:
        for shift in ((6, 6, 6), (0, 10, 3), (-3, 0, 20)):
            # shifted columns, and columns with gaps
            moved = [tuple(c + d for c, d in zip(x, shift)) for x in states]
            spread = [(x[0] * 7, x[1], x[2] ** 2) for x in moved]
            for case in (moved, spread):
                want = _loop_symmetry_defect(case)
                assert _both_paths(case, monkeypatch) == [want, want], case


def test_grid_and_pairwise_paths_take_more_balls_than_numpy_has_axes(monkeypatch):
    # M = 70 coordinates: more than the 64 axes of a numpy array, though the grid has only 2**3 cells
    one_ball = [tuple(2 if i == j else 1 for i in range(70)) for j in range(3)]
    for states in (one_ball, one_ball + [(1,) * 70], one_ball + [(2, 2) + (1,) * 68]):
        want = _loop_symmetry_defect(states)
        assert _both_paths(states, monkeypatch) == [want, want], states
    assert _loop_symmetry_defect(one_ball) is None and _loop_symmetry_defect(one_ball + [(1,) * 70]) is not None


@settings(max_examples=100, deadline=None)
@given(symmetric_sets(), st.randoms(use_true_random=False))
def test_orbits_and_linear_codes_are_symmetric_on_both_paths_and_routes(case, rng):
    params, states = case
    n, m = params.urns, params.balls
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _both_paths(states, monkeypatch) == [None, None]
        # one member moved by one ball
        moved = list(states)
        i, ball = rng.randrange(len(moved)), rng.randrange(m)
        x = list(moved[i])
        x[ball] = rng.choice([u for u in range(1, n + 1) if u != x[ball]])
        moved[i] = tuple(x)
        want = _loop_symmetry_defect(moved)
        assert _both_paths(moved, monkeypatch) == [want, want]
    start = rng.choice([y for y in product(range(1, n + 1), repeat=m) if y not in states])
    target = SetDescriptor.explicit(states)
    q = HittingQuery(params, start, target)
    chain = EnumeratedChain(params)
    first, second, *_ = moments = solve_raw_moments(chain, target, start, 4)
    assert (hitting.mean(q), hitting.variance(q)) == (first, second - first**2)
    assert hitting.raw_moments(q, 4) == moments
    assert [hitting.laplace_u(q, u) for u in (F(1, 2), 2)] == [solve_transform_u(chain, target, start, u)
                                                                for u in (F(1, 2), 2)]


def test_query_rejects_asymmetric_explicit_set_with_witnesses():
    params = ModelParams(3, 2)
    with pytest.raises(SetNotSymmetricError) as err:
        HittingQuery(params, (1, 1), SetDescriptor.explicit([(2, 2), (1, 2), (1, 1)]))
    assert str(err.value) == (
        "target set is not overlap-symmetric: "
        "state (1, 1) has overlap histogram (1, 1, 1) but state (1, 2) has overlap histogram (0, 2, 1)"
    )
    assert err.value.first == ((1, 1), (1, 1, 1))
    assert err.value.second == ((1, 2), (0, 2, 1))


# --- explicit tables -------------------------------------------------------


def _fault(draw, data, n, m):
    """``data`` with one fault of a class that the explicit-set checks name."""
    kind = draw(st.sampled_from(["long", "short", "urn", "big", "duplicate", "empty", "coordinate", "row", "payload"]))
    i = draw(st.integers(0, len(data) - 1))
    row = data[i]
    j = draw(st.integers(0, max(len(row) - 1, 0)))
    if kind == "long":
        row.append(draw(st.integers(1, n)))
    elif kind == "short":
        del row[j:]
    elif kind == "duplicate":
        data.insert(draw(st.integers(0, len(data))), list(row))
    elif kind == "empty":
        data = []
    elif kind == "row":
        data[i] = draw(st.sampled_from([5, "1,2", {}, None, True, 1.0]))
    elif kind == "payload":
        data = draw(st.sampled_from([{}, 5, "[[1]]", None]))
    else:
        bad = {
            "urn": st.sampled_from([0, n + 1, -1]),
            "big": st.sampled_from([2**63, -(2**63) - 1, 10**30]),  # past 64 bits either way
            "coordinate": st.sampled_from([True, False, 1.0, 2.5, "2", None]),
        }[kind]
        row[j:j + 1] = [draw(bad)]
    return data


@st.composite
def _explicit_payload(draw):
    """A chain and the JSON payload of an ``explicit:@file`` set on it: a
    permuted symbolic set or distinct random states, with up to two faults."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    params = ModelParams(n, m)
    if draw(st.booleans()):
        d = draw(st.sampled_from([SetDescriptor.diagonal(), SetDescriptor.count(draw(st.integers(0, m)), draw(st.integers(1, n)))]))
        tau = ProductPermutation.random(params, draw(st.randoms(use_true_random=False)))
        data = list(draw(st.permutations(tau.apply_set(d.materialize(params)))))
    else:
        data = draw(st.lists(st.tuples(*[st.integers(1, n)] * m), min_size=1, max_size=8, unique=True))
    data = [list(s) for s in data]
    for _ in range(draw(st.integers(0, 2))):
        if isinstance(data, list) and data and all(isinstance(s, list) for s in data):
            data = _fault(draw, data, n, m)
    return params, data


@pytest.fixture(scope="module")
def payload_file(tmp_path_factory):
    return tmp_path_factory.mktemp("explicit") / "set.json"


@settings(max_examples=400, deadline=None)
@given(case=_explicit_payload())
def test_member_table_refuses_what_the_member_loop_refused(payload_file, case):
    params, data = case
    payload_file.write_text(json.dumps(data))
    path = str(payload_file)
    try:
        want = explicit_members(params, json.loads(payload_file.read_text()), path)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            parse_set(f"explicit:@{path}").validate(params)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    d = parse_set(f"explicit:@{path}")
    table = d.validate(params)
    assert table.tolist() == [list(s) for s in want]
    assert d.materialize(params) == want
    assert symmetry_defect(table) == _loop_symmetry_defect(want)


# --- permutations ----------------------------------------------------------


def test_identity_permutation():
    p = ModelParams(3, 2)
    tau = ProductPermutation(((1, 2, 3),) * p.balls)
    assert tau.apply_state((1, 3)) == (1, 3)
    assert tau.apply_set([(1, 1), (2, 3)]) == [(1, 1), (2, 3)]


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        ProductPermutation(((1, 1, 2),))
    with pytest.raises(ValueError, match="state length does not match permutation arity"):
        ProductPermutation(((2, 1),)).apply_state((1, 2))


@settings(max_examples=50)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_permutation_preserves_overlap(n, m, rng):
    params = ModelParams(n, m)
    tau = ProductPermutation.random(params, rng)
    x = tuple(rng.randrange(1, n + 1) for _ in range(m))
    y = tuple(rng.randrange(1, n + 1) for _ in range(m))
    assert overlap(tau.apply_state(x), tau.apply_state(y)) == overlap(x, y)


def test_permutation_preserves_symmetry():
    params = ModelParams(3, 2)
    rng = random.Random(5)
    diagonal = SetDescriptor.diagonal().materialize(params)
    lopsided = [(1, 1), (2, 2), (1, 2)]
    for _ in range(20):
        tau = ProductPermutation.random(params, rng)
        assert symmetry_defect(tau.apply_set(diagonal)) is None
        assert symmetry_defect(tau.apply_set(lopsided)) is not None


def test_profile_includes_self_overlap():
    params = ModelParams(3, 2)
    diagonal = SetDescriptor.diagonal().materialize(params)
    assert overlap_profile((1, 1), diagonal) == (0, 0, 2)


# --- grammar ---------------------------------------------------------------


# each grammar form and the descriptor its constructor builds
_BUILT = {
    "singleton:1,2": SetDescriptor.singleton((1, 2)),
    "pair:(1,1);(2,2)": SetDescriptor.pair((1, 1), (2, 2)),
    "diagonal": SetDescriptor.diagonal(),
    "count:1": SetDescriptor.count(1),
    "count:2:3": SetDescriptor.count(2, 3),
    "distinct": SetDescriptor.distinct(),
}


@pytest.mark.parametrize(
    "text,kind",
    [
        ("singleton:1,2", "singleton"),
        ("pair:(1,1);(2,2)", "pair"),
        ("diagonal", "diagonal"),
        ("count:1", "count"),
        ("count:2:3", "count"),
        ("distinct", "distinct"),
    ],
)
def test_parse_set_roundtrip(text, kind):
    d = parse_set(text)
    assert d.kind == kind
    assert d == _BUILT[text]


def test_parse_count_default_reference_urn():
    assert parse_set("count:1").reference_urn == 2


def test_parse_explicit_file(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps([[1, 1], [2, 2]]))
    d = parse_set(f"explicit:@{path}")
    assert d.materialize(ModelParams(2, 2)) == [(1, 1), (2, 2)]


def test_an_explicit_file_is_type_checked_once(tmp_path, monkeypatch, capsys):
    # parse_set tests every coordinate's type, so no route's validation tests the list again; the oracle
    # still checks the one-state lists it looks up
    path = tmp_path / "set.json"
    path.write_text(json.dumps([[1, 1], [2, 2], [3, 3]]))
    scanned = []  # the length of every list of states whose coordinates' types are tested

    class Chain(itertools.chain):
        @classmethod
        def from_iterable(cls, iterable):
            scanned.append(len(iterable))
            return super().from_iterable(iterable)

    monkeypatch.setattr(model, "chain", Chain)
    for command in ("exact", "oracle", "compare"):
        scanned.clear()
        assert cli.main([command, "--N", "3", "--M", "2", "--start", "1,2", "--set", f"explicit:@{path}"]) == 0
        assert scanned.count(3) == 1 and set(scanned) <= {1, 3}, command
    scanned.clear()
    SetDescriptor("explicit", states=((1, 1), (2, 2), (3, 3))).validate(ModelParams(3, 2))  # types unknown
    assert scanned == [3]
    with pytest.raises(ValueError, match="coordinate 1.5 is not an integer"):
        SetDescriptor("explicit", states=((1.5, 2), (2, 1), (3, 3))).validate(ModelParams(3, 2))
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["", "meh", "pair:(1,1)", "count:1:2:3", "explicit:nope", "ring:3"])
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_set(bad)
