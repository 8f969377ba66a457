import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrenfest.hitting import (
    HittingQuery,
    ctmc_stats,
    exit_distribution,
    laplace_lambda,
    laplace_u,
    mean,
    raw_moments,
    summarize,
    variance,
)
from ehrenfest.closedforms import count_set_mean
from ehrenfest.model import (
    ModelParams,
    ProductPermutation,
    SetDescriptor,
    SetNotSymmetricError,
    overlap,
)
from ehrenfest import exact, hitting, model, oracle
from ehrenfest.oracle import EnumeratedChain, mean_vector, raw_moment_vectors, solve_transform
from ehrenfest.exact import Jet, format_significant, lambda_to_u
from ehrenfest.resolvent import (
    centered_kernel,
    centered_kernel_jet,
    kernel_coefficients,
    kernel_row,
    resolvent_kernel,
)
import reference
from reference import all_distinct_mean, green_potential, product_semigroup, states_of


def _query(n, m, start, descriptor):
    return HittingQuery(ModelParams(n, m), start, descriptor)


def test_query_rejects_asymmetric_target():
    with pytest.raises(SetNotSymmetricError):
        _query(3, 2, (1, 1), SetDescriptor.explicit([(1, 1), (2, 2), (1, 2)]))


def test_symmetry_test_runs_only_on_explicit_sets(monkeypatch):
    calls = []
    monkeypatch.setattr(model, "symmetry_defect", lambda states: calls.append(states))
    p = ModelParams(3, 3)
    for d in (
        SetDescriptor.singleton((2, 2, 2)),
        SetDescriptor.pair((2, 2, 2), (1, 2, 3)),
        SetDescriptor.diagonal(),
        SetDescriptor.count(1),
        SetDescriptor.distinct(),
    ):
        HittingQuery(p, (1, 1, 2), d)
    assert calls == []
    HittingQuery(p, (1, 1, 2), SetDescriptor.explicit([(2, 2, 2), (1, 1, 1)]))
    assert [table.tolist() for table in calls] == [[[1, 1, 1], [2, 2, 2]]]


def test_explicit_query_validates_its_members_once(monkeypatch):
    calls = []
    real = SetDescriptor.validate

    def counting(self, params):
        calls.append(self.kind)
        return real(self, params)

    monkeypatch.setattr(SetDescriptor, "validate", counting)
    p = ModelParams(3, 4)
    members = SetDescriptor.count(2).materialize(p)
    calls.clear()
    HittingQuery(p, (1, 1, 2, 3), SetDescriptor.explicit(members))
    assert calls == ["explicit"]


def test_explicit_query_checks_no_member_on_its_own(monkeypatch):
    # the members are checked as one table: check_state runs as often for 560 members as for 12
    calls = []
    real = ModelParams.check_state

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    sizes = {}
    for n, m, h in ((3, 3, 1), (3, 7, 3)):
        p = ModelParams(n, m)
        members = SetDescriptor.count(h).materialize(p)
        with monkeypatch.context() as patch:
            patch.setattr(ModelParams, "check_state", counting)
            calls.clear()
            HittingQuery(p, (1,) * m, SetDescriptor.explicit(members))
        sizes[len(members)] = len(calls)
    assert sizes == {12: 1, 560: 1}


@pytest.mark.parametrize(
    "target,states",
    [
        (SetDescriptor.singleton((2, 2, 2)), 2),
        (SetDescriptor.pair((2, 2, 2), (1, 2, 3)), 3),
        (SetDescriptor.diagonal(), 1),
        (SetDescriptor.count(1), 1),
        (SetDescriptor.distinct(), 1),
        (SetDescriptor.explicit([(2, 2, 2), (1, 1, 1)]), 1),  # its members are checked as one table
    ],
    ids=lambda v: getattr(v, "kind", None),
)
def test_query_validates_its_target_once_and_checks_each_state_once(monkeypatch, target, states):
    # the query reads the start and the payload states: each is checked once, the set validated once,
    # and the summary's exit law reads the payload the query checked
    calls = []
    for owner, name in ((SetDescriptor, "validate"), (ModelParams, "check_state")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    query = HittingQuery(ModelParams(3, 3), (1, 1, 2), target)
    assert calls.count("validate") == 1
    assert calls.count("check_state") == states
    summarize(query)
    assert calls.count("validate") == 1
    assert calls.count("check_state") == states


def test_laplace_u_single_ball():
    q = _query(3, 1, (1,), SetDescriptor.singleton((2,)))
    assert laplace_u(q, 1) == F(1, 3)


@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=6),
    st.fractions(min_value=F(1, 20), max_value=20, max_denominator=40),
)
def test_laplace_u_single_ball_closed_form(n, u):
    # one ball: the continuous walk hits a fixed other urn with transform 1/(1+u*(n-1))
    q = _query(n, 1, (1,), SetDescriptor.singleton((2,)))
    assert laplace_u(q, u) == 1 / (1 + u * (n - 1))


def test_laplace_u_boundaries():
    q = _query(3, 2, (1, 1), SetDescriptor.singleton((2, 2)))
    inside = _query(3, 2, (2, 2), SetDescriptor.singleton((2, 2)))
    assert laplace_u(inside, F(7)) == 1
    assert laplace_u(q, 10**6) < F(1, 10**5)
    with pytest.raises(ValueError):
        laplace_u(q, 0)


@pytest.mark.parametrize(
    "n,m,start,descriptor",
    [
        (3, 2, (1, 1), SetDescriptor.singleton((2, 2))),
        (3, 2, (1, 2), SetDescriptor.diagonal()),
        (2, 3, (1, 1, 1), SetDescriptor.count(2)),
        (3, 3, (1, 1, 1), SetDescriptor.distinct()),
    ],
)
def test_laplace_u_in_unit_interval_and_decreasing(n, m, start, descriptor):
    q = _query(n, m, start, descriptor)
    grid = [F(1, 4), F(1, 2), F(1), F(2), F(5)]
    values = [laplace_u(q, u) for u in grid]
    assert all(0 < v <= 1 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def _reference_kernel(params, k, u):
    """The kernel as a sum of reduced Fractions, one per coefficient."""
    n = params.urns
    shift = u * (n - 1)
    return sum((c / (n * t + shift) for t, c in enumerate(kernel_coefficients(params, k)) if c), F(0))


def _reference_transform(params, start_hist, ref_hist, u):
    """The transform as a ratio of histogram-weighted per-overlap kernels."""

    def weigh(hist):
        return sum((c * _reference_kernel(params, k, u) for k, c in enumerate(hist) if c), F(0))

    return weigh(start_hist) / weigh(ref_hist)


@st.composite
def _transform_cases(draw):
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 40))
    hist = st.lists(st.integers(0, 10**9), min_size=m + 1, max_size=m + 1)
    start_hist, ref_hist = draw(hist), draw(hist.filter(any))
    if draw(st.booleans()):
        u = draw(st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6))
    else:
        # dyadic lambdas: a float such as 0.3 carries a 2**54 denominator into
        # every Taylor term, and the reference then takes seconds per case
        u = lambda_to_u(m, draw(st.integers(1, 32)) / 8, draw(st.integers(1, 200)))
    return ModelParams(n, m), tuple(start_hist), tuple(ref_hist), u


@settings(max_examples=30, deadline=None)
@given(_transform_cases())
def test_laplace_u_equals_ratio_of_per_overlap_kernels(case):
    params, start_hist, ref_hist, u = case
    # any two histograms, not only those a target set realizes
    rows = (kernel_row(params, start_hist), kernel_row(params, ref_hist))
    query = SimpleNamespace(params=params, rows=rows)
    assert laplace_u(query, u) == _reference_transform(params, start_hist, ref_hist, u)


def test_laplace_lambda_at_zero_and_log2():
    q = _query(3, 1, (1,), SetDescriptor.singleton((2,)))
    assert laplace_lambda(q, 0.0) == 1
    value = laplace_lambda(q, math.log(2))
    assert abs(value - F(1, 3)) <= F(1, 3) / 10**15
    with pytest.raises(ValueError):
        laplace_lambda(q, -0.5)


def test_laplace_lambda_nonincreasing():
    q = _query(3, 2, (1, 1), SetDescriptor.singleton((2, 2)))
    grid = [i / 10 for i in range(21)]
    values = [laplace_lambda(q, lam) for lam in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


# the lambda x digits sweep every renderer test below reads
_SWEEP_LAMBDAS = (0.001, 0.01, 0.5, 3, 20, 700)
_SWEEP_DIGITS = (1, 5, 20, 60, 200)


def _sweep_query(m, kind):
    """A singleton, a pair or the diagonal at N=6 and ``m`` balls, from a start outside it."""
    targets = {
        "singleton": SetDescriptor.singleton((2,) * m),
        "pair": SetDescriptor.pair((2,) * m, (4,) * (m // 2) + (5,) * (m - m // 2)),
        "diagonal": SetDescriptor.diagonal(),
    }
    return _query(6, m, tuple(1 + t % 3 for t in range(m)), targets[kind])


@pytest.mark.parametrize("kind", ["singleton", "pair", "diagonal"])
@pytest.mark.parametrize("m", [40, 100, 200])
def test_lambda_sums_render_as_the_exact_division(m, kind, monkeypatch):
    # the report's decimal and float of each unreduced sample against the
    # division of the whole reduced value that rendered them before; the top
    # bits settle every one of them, so none reaches the exact fallback
    fallbacks = []
    monkeypatch.setattr(exact, "_exact_quotient", lambda num, den: fallbacks.append(num) or 1 / 0)
    q = _sweep_query(m, kind)
    for lam in _SWEEP_LAMBDAS:
        for digits in _SWEEP_DIGITS:
            num, den = hitting.lambda_sums(q, lam, digits)
            value = F(num, den)
            assert format_significant((num, den), digits) == reference.format_significant(value, digits)
            assert num / den == float(value)
    assert fallbacks == []


def test_lambda_sums_render_as_the_exact_division_at_a_thousand_digits():
    q = _sweep_query(200, "singleton")
    num, den = hitting.lambda_sums(q, 0.5, 1000)
    assert max(num.bit_length(), den.bit_length()) > 600_000
    value = F(num, den)
    assert format_significant((num, den), 1000) == reference.format_significant(value, 1000)
    assert num / den == float(value)


def test_lambda_samples_at_the_edges():
    # lambda = 0 is exactly 1; at 699.99 the value underflows the float range,
    # and its 1000 digits are written in exponent form
    q = _query(3, 4, (1, 1, 1, 1), SetDescriptor.singleton((2, 2, 2, 2)))
    s = summarize(q, lambda_grid=(0.0, 699.99), digits=1000)
    (zero, one), (lam, (num, den)) = s.lambda_samples
    assert (zero, one) == (0.0, (1, 1)) and format_significant(one, 1000) == "1"
    value = F(num, den)
    assert lam == 699.99 and num / den == float(value) == 0.0
    text = format_significant((num, den), 1000)
    assert text == reference.format_significant(value, 1000)
    assert "E-" in text and len(text.partition("E")[0]) == 1001  # 1000 digits and the point


# --- Green potential --------------------------------------------------------


def test_green_potential_value():
    p = ModelParams(3, 1)
    # (n-1)/n**m * kernel = (2/3) * (9/10)
    assert green_potential(p, (1,), (1,), 1) == F(3, 5)
    assert green_potential(p, (1,), (1,), 1) == F(2, 3) * resolvent_kernel(p, 1, 1)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 4)])
def test_green_potential_total_mass(n, m):
    p = ModelParams(n, m)
    chain = EnumeratedChain(p)
    every = states_of(chain)
    x = every[1]
    for u in (F(1, 2), F(1), F(3)):
        total = sum(green_potential(p, x, z, u) for z in every)
        assert total == 1 / u


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 3), (3, 5)])
def test_green_potential_is_the_time_transform_of_the_product_semigroup(n, m):
    """The paper's auxiliary chain: integral_0^inf e^(-u t) p_t(x, z) dt is the
    Green potential, which is (n-1)/n**m times the resolvent kernel."""
    from scipy import integrate

    p = ModelParams(n, m)
    x = (1,) * m
    for k in range(m + 1):
        z = (1,) * k + (2,) * (m - k)
        for u in (F(1, 4), F(1), F(3)):
            exact = green_potential(p, x, z, u)
            assert exact == F(n - 1, n**m) * resolvent_kernel(p, k, u)
            value, _ = integrate.quad(
                lambda t: math.exp(-float(u) * t) * product_semigroup(p, t, x, z),
                0, math.inf, epsabs=1e-15, epsrel=1e-13, limit=200,
            )
            assert abs(value - float(exact)) <= 1e-12, (k, u)


def test_green_potential_depends_only_on_overlap():
    p = ModelParams(3, 3)
    u = F(2, 3)
    pairs = [((1, 2, 3), (1, 2, 1)), ((2, 2, 2), (3, 2, 2)), ((1, 1, 3), (1, 1, 2))]
    values = {green_potential(p, x, z, u) for x, z in pairs}
    assert len(values) == 1  # all pairs have overlap 2
    with pytest.raises(ValueError):
        green_potential(p, (1, 1, 1), (1, 1, 1), 0)


# --- moments ----------------------------------------------------------------


def test_mean_examples():
    assert mean(_query(3, 2, (1, 1), SetDescriptor.singleton((2, 2)))) == 10
    assert mean(_query(3, 1, (1,), SetDescriptor.singleton((2,)))) == 2
    assert mean(_query(3, 2, (2, 2), SetDescriptor.singleton((2, 2)))) == 0


def test_variance_examples():
    assert variance(_query(2, 1, (1,), SetDescriptor.singleton((2,)))) == 0
    assert variance(_query(3, 1, (1,), SetDescriptor.singleton((2,)))) == 2
    assert variance(_query(3, 2, (1, 1), SetDescriptor.singleton((2, 2)))) == 74


def test_raw_moments_geometric_case():
    q = _query(3, 1, (1,), SetDescriptor.singleton((2,)))
    got = raw_moments(q, 3)
    # geometric(1/2) on {1,2,...}: E[T**3] = sum(k**3 / 2**k) = 26
    assert got == [2, 6, 26]
    inside = _query(3, 1, (2,), SetDescriptor.singleton((2,)))
    assert raw_moments(inside, 4) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        raw_moments(q, 0)


def _reference_moments(params, start_hist, ref_hist, order):
    """Raw moments from per-overlap centered-kernel jets in ``u``: each side
    ``|A| + (urns-1)*u * sum_k hist[k] * jet_k`` composed with the series of
    ``u = balls * (e**lambda - 1)``, then divided, then read off."""
    n, m = params.urns, params.balls
    top = max(order, 2) + 1
    size = Jet.constant(sum(ref_hist), top)
    shift = Jet((0, n - 1) + (0,) * (top - 1))
    substitution = Jet([0] + [F(m, math.factorial(j)) for j in range(1, top + 1)])

    def side(hist):
        acc = sum((c * centered_kernel_jet(params, k, top) for k, c in enumerate(hist) if c), Jet.constant(0, top))
        return (size + shift * acc).compose(substitution)

    transform = side(start_hist) / side(ref_hist)
    return [(-1) ** r * math.factorial(r) * transform.coeffs[r] for r in range(1, order + 1)]


@st.composite
def _moment_cases(draw):
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 40))
    ref_hist = draw(st.lists(st.integers(0, 10**30), min_size=m + 1, max_size=m + 1).filter(any))
    # any start histogram with the same total: the reference puts |A| on both sides
    total = sum(ref_hist)
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=m, max_size=m)))
    start_hist = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return ModelParams(n, m), tuple(start_hist), tuple(ref_hist), draw(st.integers(1, 16))


@settings(max_examples=30, deadline=None)
@given(_moment_cases())
def test_raw_moments_equal_composed_centered_kernel_jets(case):
    params, start_hist, ref_hist, order = case
    rows = (kernel_row(params, start_hist), kernel_row(params, ref_hist))
    query = SimpleNamespace(params=params, rows=rows)
    assert raw_moments(query, order) == _reference_moments(params, start_hist, ref_hist, order)


_LARGEST = [
    pytest.param(10**5, SetDescriptor.count(150), (2,) * 150 + (1,) * 50, 4, id="count150-order4"),
    pytest.param(10**5, SetDescriptor.count(150), (2,) * 150 + (1,) * 50, 32, id="count150-order32"),
    pytest.param(10, SetDescriptor.count(100, 2), (2,) * 100 + (1,) * 100, 16, id="count100:2-N10-order16"),
    pytest.param(3, SetDescriptor.diagonal(), (3,) * 200, 32, id="diagonal-N3-order32"),
    pytest.param(10**5, SetDescriptor.singleton((2,) * 200), (2,) * 200, 32, id="singleton-order32"),
]


@pytest.mark.parametrize("n,descriptor,inside,order", _LARGEST)
def test_raw_moments_equal_jet_division_at_the_largest_size(n, descriptor, inside, order):
    outside = _query(n, 200, (1,) * 200, descriptor)
    assert raw_moments(outside, order) == reference.raw_moments(outside, order)
    # from a start inside the set both rows are equal and every moment is 0
    within = _query(n, 200, inside, descriptor)
    assert raw_moments(within, order) == reference.raw_moments(within, order) == [0] * order


@pytest.mark.parametrize(
    "n,m,start,descriptor",
    [
        (3, 2, (1, 1), SetDescriptor.singleton((2, 2))),
        (3, 2, (1, 2), SetDescriptor.diagonal()),
        (2, 3, (2, 2, 2), SetDescriptor.count(0)),
        (4, 2, (1, 3), SetDescriptor.pair((2, 2), (3, 3))),
    ],
)
def test_moment_identities(n, m, start, descriptor):
    q = _query(n, m, start, descriptor)
    moments = raw_moments(q, 4)
    assert moments[0] == mean(q)
    assert moments[1] == variance(q) + mean(q) ** 2


def test_ctmc_stats_examples():
    q = _query(3, 1, (1,), SetDescriptor.singleton((2,)))
    stats = ctmc_stats(q)
    assert stats.mean == 2 and stats.variance == 4
    inside = _query(3, 1, (2,), SetDescriptor.singleton((2,)))
    assert ctmc_stats(inside) == ctmc_stats(inside).__class__(F(0), F(0))


@pytest.mark.parametrize(
    "n,m,start,descriptor",
    [
        (3, 2, (1, 1), SetDescriptor.singleton((2, 2))),
        (2, 3, (1, 1, 1), SetDescriptor.count(3)),
        (3, 2, (1, 2), SetDescriptor.diagonal()),
    ],
)
def test_ctmc_discrete_consistency(n, m, start, descriptor):
    q = _query(n, m, start, descriptor)
    stats = ctmc_stats(q)
    assert m * stats.mean == mean(q)
    assert m**2 * stats.variance - mean(q) == variance(q)


# --- structural properties ---------------------------------------------------


def test_reference_element_choice_is_irrelevant():
    p = ModelParams(3, 2)
    q = _query(3, 2, (1, 2), SetDescriptor.diagonal())
    targets = q.target.materialize(p)
    u = F(1)
    num = sum(resolvent_kernel(p, overlap(q.start, z), u) for z in targets)
    ratios = {
        num / sum(resolvent_kernel(p, overlap(y, z), u) for z in targets) for y in targets
    }
    assert ratios == {laplace_u(q, u)}
    means = {
        F(p.balls * (p.urns - 1), len(targets))
        * sum(centered_kernel(p, overlap(y, z)) - centered_kernel(p, overlap(q.start, z)) for z in targets)
        for y in targets
    }
    assert means == {mean(q)}


@pytest.mark.parametrize(
    "n,m,descriptor",
    [
        (3, 2, SetDescriptor.diagonal()),
        (2, 3, SetDescriptor.count(1)),
        (3, 2, SetDescriptor.singleton((2, 2))),
    ],
)
def test_mean_rank_reverses_kernel_score(n, m, descriptor):
    # ordering starts by the summed centered kernel reverses the ordering by mean
    p = ModelParams(n, m)
    chain = EnumeratedChain(p)
    targets = descriptor.materialize(p)
    scored = []
    for x in states_of(chain):
        score = sum((centered_kernel(p, overlap(x, z)) for z in targets), F(0))
        scored.append((score, mean(HittingQuery(p, x, descriptor))))
    for s1, m1 in scored:
        for s2, m2 in scored:
            if s1 < s2:
                assert m1 > m2
            elif s1 == s2:
                assert m1 == m2


def test_permutation_invariance_exact():
    p = ModelParams(3, 2)
    rng = random.Random(17)
    cases = [
        ((1, 1), SetDescriptor.singleton((2, 2))),
        ((1, 2), SetDescriptor.diagonal()),
        ((1, 1), SetDescriptor.pair((2, 2), (2, 1))),
    ]
    for start, descriptor in cases:
        q = HittingQuery(p, start, descriptor)
        base = (mean(q), variance(q), laplace_u(q, F(1, 2)))
        for _ in range(10):
            tau = ProductPermutation.random(p, rng)
            moved = HittingQuery(
                p,
                tau.apply_state(start),
                SetDescriptor.explicit(tau.apply_set(descriptor.materialize(p))),
            )
            assert (mean(moved), variance(moved), laplace_u(moved, F(1, 2))) == base


def test_engine_matches_oracle_spot_checks():
    p = ModelParams(2, 3)
    chain = EnumeratedChain(p)
    descriptor = SetDescriptor.diagonal()
    vec = mean_vector(chain, descriptor)
    moments = raw_moment_vectors(chain, descriptor, 4)
    for x in [(1, 2, 1), (2, 2, 1), (1, 1, 1)]:
        q = HittingQuery(p, x, descriptor)
        assert mean(q) == vec[x]
        assert raw_moments(q, 4) == [vecs[x] for vecs in moments]
        for u in (F(1, 2), F(2)):
            z = F(p.balls, 1) / (u + p.balls)
            assert laplace_u(q, u) == solve_transform(chain, descriptor, x, z)


def test_exit_distribution_matches_oracle():
    p = ModelParams(3, 3)
    chain = EnumeratedChain(p)
    closed = [
        SetDescriptor.singleton((2, 2, 1)),
        SetDescriptor.pair((2, 2, 1), (3, 1, 1)),
        SetDescriptor.diagonal(),
    ]
    for descriptor in closed:
        for x in [(1, 2, 3), (1, 1, 2), descriptor.materialize(p)[-1]]:  # the last start lies inside the set
            want = oracle.exit_distribution(chain, descriptor, x)
            assert exit_distribution(HittingQuery(p, x, descriptor)) == want
    for descriptor in (SetDescriptor.count(1), SetDescriptor.distinct(), SetDescriptor.explicit([(2, 2, 3)])):
        assert exit_distribution(HittingQuery(p, (1, 1, 1), descriptor)) is None


def test_exit_law_reads_the_payload_the_query_validated():
    # a target built by the constructor keeps its raw payload, here lists and numpy integers: the exit law reads
    # the states the query checked, as the moments do, and keys them by plain int tuples
    import numpy as np

    p = ModelParams(3, 2)
    raw = {
        "pair": SetDescriptor("pair", states=([2, 2], [1, 2])),
        "singleton": SetDescriptor("singleton", states=(np.array([2, 2]),)),
    }
    built = {"pair": SetDescriptor.pair((2, 2), (1, 2)), "singleton": SetDescriptor.singleton((2, 2))}
    for kind, descriptor in raw.items():
        got = summarize(HittingQuery(p, (1, 1), descriptor))
        want = summarize(HittingQuery(p, (1, 1), built[kind]))
        assert got == want and got.exit_distribution == want.exit_distribution
        assert all(type(c) is int for state in got.exit_distribution for c in state)


def test_exit_law_only_from_closed_forms_wherever_the_start_lies():
    p = ModelParams(3, 3)
    closed = [
        (SetDescriptor.singleton((2, 2, 1)), (2, 2, 1)),
        (SetDescriptor.pair((2, 2, 1), (3, 1, 1)), (3, 1, 1)),
        (SetDescriptor.diagonal(), (3, 3, 3)),
    ]
    for descriptor, x in closed:
        assert exit_distribution(HittingQuery(p, x, descriptor)) == {
            t: F(t == x) for t in descriptor.materialize(p)
        }
    for descriptor, x in [
        (SetDescriptor.count(1), (2, 1, 1)),
        (SetDescriptor.distinct(), (1, 2, 3)),
        (SetDescriptor.explicit([(2, 2, 3)]), (2, 2, 3)),
    ]:
        assert x in descriptor.materialize(p)
        assert exit_distribution(HittingQuery(p, x, descriptor)) is None


def test_start_inside_the_set_takes_the_general_path_and_matches_oracle():
    # a member's histogram is the reference one, so the two rows agree and the ratio alone gives 1 and 0
    p = ModelParams(3, 3)
    chain = EnumeratedChain(p)
    tau = ProductPermutation.random(p, random.Random(3))
    kinds = [
        SetDescriptor.singleton((2, 2, 1)),
        SetDescriptor.pair((2, 2, 1), (3, 1, 1)),
        SetDescriptor.diagonal(),
        SetDescriptor.count(1),
        SetDescriptor.count(2, 3),
        SetDescriptor.distinct(),
        SetDescriptor.explicit(tau.apply_set(SetDescriptor.count(2).materialize(p))),
    ]
    for descriptor in kinds:
        targets = descriptor.materialize(p)
        moments = raw_moment_vectors(chain, descriptor, 4)
        for x in (targets[0], targets[-1]):
            q = HittingQuery(p, x, descriptor)
            assert q.rows[0] == q.rows[1], (descriptor, x)
            assert raw_moments(q, 4) == [vecs[x] for vecs in moments] == [0] * 4, (descriptor, x)
            for u in (F(1, 2), F(2)):
                assert laplace_u(q, u) == oracle.solve_transform_u(chain, descriptor, x, u) == 1, (descriptor, x)
            assert laplace_lambda(q, 0.5) == 1
            law = exit_distribution(q)
            if descriptor.kind in ("singleton", "pair", "diagonal"):
                assert law == oracle.exit_distribution(chain, descriptor, x) == {t: F(t == x) for t in targets}
            else:
                assert law is None


def test_engine_lists_no_symbolic_set(monkeypatch):
    p = ModelParams(4, 3)
    symbolic = [
        SetDescriptor.singleton((2, 2, 1)),
        SetDescriptor.pair((2, 2, 1), (3, 1, 1)),
        SetDescriptor.diagonal(),
        SetDescriptor.count(1),
        SetDescriptor.count(2, 4),
        SetDescriptor.distinct(),
    ]
    starts = [(1, 2, 3), (1, 1, 2), (2, 2, 1), (3, 1, 1), (4, 4, 4), (2, 4, 4)]

    def summaries():
        return [
            summarize(HittingQuery(p, x, d), order=3, u_grid=(F(1),), lambda_grid=(0.5,))
            for d in symbolic
            for x in starts
        ]

    listed = summaries()

    def refuse(self, params):
        raise AssertionError(f"the engine listed a {self.kind} set")

    monkeypatch.setattr(SetDescriptor, "materialize", refuse)
    assert summaries() == listed
    # sets of C(12, 3) * 9**9 and 10! members
    count_chain, distinct_chain = ModelParams(10, 12), ModelParams(10, 10)
    q = HittingQuery(count_chain, (1,) * 12, SetDescriptor.count(3))
    assert summarize(q).mean == count_set_mean(count_chain, 0, 3)
    q = HittingQuery(distinct_chain, (1,) * 10, SetDescriptor.distinct())
    assert summarize(q).mean == all_distinct_mean(distinct_chain)


def test_concurrent_queries_share_memo_safely():
    from concurrent.futures import ThreadPoolExecutor

    p = ModelParams(4, 3)
    queries = [
        HittingQuery(p, x, SetDescriptor.singleton((2, 2, 2)))
        for x in [(1, 1, 1), (1, 2, 1), (3, 4, 1), (2, 2, 1)]
    ] * 8
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda q: (mean(q), variance(q)), queries))
    serial = [(mean(q), variance(q)) for q in queries]
    assert results == serial


def test_summarize_bundles_fields():
    q = _query(3, 2, (1, 1), SetDescriptor.singleton((2, 2)))
    s = summarize(q, order=3, u_grid=(F(1, 2), F(1)), lambda_grid=(0.0, 0.5))
    assert s.mean == 10 and s.variance == 74
    assert len(s.raw_moments) == 3
    assert [u for u, _ in s.u_samples] == [F(1, 2), F(1)]
    assert s.lambda_samples[0][1] == (1, 1)
    assert F(*s.lambda_samples[1][1]) == laplace_lambda(q, 0.5)
    # the summary is a value: a second run gives an equal one
    assert summarize(q, order=3, u_grid=(F(1, 2), F(1)), lambda_grid=(0.0, 0.5)) == s
    with pytest.raises(ValueError, match="moment order must be >= 1"):
        summarize(q, order=0)


def test_query_folds_each_side_once(monkeypatch):
    calls = []
    monkeypatch.setattr(hitting, "kernel_row", lambda *a: calls.append(a) or kernel_row(*a))
    q = _query(3, 4, (1, 1, 1, 1), SetDescriptor.count(2))
    summarize(q, order=4, u_grid=(F(1, 2), F(1), F(2)), lambda_grid=(0.5, 1.0))
    assert len(calls) == 2
