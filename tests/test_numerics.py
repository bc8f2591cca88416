"""Contracts of the quadrature kernels, radial grids, seeds and draws."""
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from chargelab import correlation, matrixloc, numerics, trialstate
from chargelab.errors import BudgetExceededError, DomainError, PreconditionError, ResourceLimitError
from chargelab.numerics import (
    QuadratureResult,
    RadialGrid,
    integrate_1d,
    normals,
    seed_words,
    splitmix64,
    uniform_radial_grid,
)

# Frozen from a 30-digit independent evaluation before the build.
J_BARE_INTEGRAL = 0.80600946268832285


def bare_j_integrand(x):
    # 1 + x^4 - x^2*sqrt(x^4+2) in its cancellation-free conjugate form.
    x2 = x * x
    return 1.0 / (1.0 + x2 * x2 + x2 * math.sqrt(x2 * x2 + 2.0))


def test_polynomial_exact():
    res = integrate_1d(lambda x: x, 0.0, 1.0, tol=1e-12)
    assert abs(res.value - 0.5) < 1e-14
    assert res.evaluations >= 1


def test_semi_infinite_exponential():
    res = integrate_1d(lambda x: math.exp(-x), 0.0, math.inf, tol=1e-12)
    assert abs(res.value - 1.0) <= max(1e-12, res.error_estimate)


def test_j_integral_matches_frozen_value():
    head = integrate_1d(bare_j_integrand, 0.0, 1.0, tol=5e-11)
    tail = integrate_1d(bare_j_integrand, 1.0, math.inf, tol=5e-11)
    assert abs(head.value + tail.value - J_BARE_INTEGRAL) <= 1e-10


def test_conjugate_form_is_the_same_integrand():
    for x in np.linspace(0.0, 5.0, 41):
        raw = 1.0 + x**4 - x**2 * math.sqrt(x**4 + 2.0)
        assert abs(raw - bare_j_integrand(x)) < 1e-12


def test_linearity():
    f = lambda x: math.exp(-x)
    g = lambda x: x * math.exp(-x)
    tol = 1e-10
    combo = integrate_1d(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, math.inf, tol=tol)
    parts = 2.0 * integrate_1d(f, 0.0, math.inf, tol=tol).value
    parts += 3.0 * integrate_1d(g, 0.0, math.inf, tol=tol).value
    assert abs(combo.value - parts) <= 2.0 * tol


def test_endpoint_singularity():
    res = integrate_1d(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, tol=1e-10)
    assert abs(res.value - 2.0) < 1e-9


def test_budget_exceeded_carries_partial(monkeypatch):
    monkeypatch.setattr(numerics, "QUAD_LIMIT", 3)
    with pytest.raises(BudgetExceededError, match="after 3 intervals") as exc:
        integrate_1d(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, tol=1e-13)
    assert exc.value.partial_value is not None
    assert math.isfinite(exc.value.partial_value)
    assert exc.value.error_estimate > 1e-13


def test_budget_stops_where_nodes_would_reach_the_endpoint(monkeypatch):
    # bisecting toward the singular endpoint x = 1 would round a node onto it
    monkeypatch.setattr(numerics, "QUAD_LIMIT", 1000)
    with pytest.raises(BudgetExceededError, match="too narrow to bisect") as exc:
        integrate_1d(lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0, tol=1e-14)
    assert abs(exc.value.partial_value - 2.0) < 1e-6


def test_bad_arguments():
    with pytest.raises(DomainError):
        integrate_1d(lambda x: x, 0.0, 1.0, tol=-1.0)
    with pytest.raises(DomainError):
        integrate_1d(lambda x: x, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        QuadratureResult(value=0.0, error_estimate=-1.0, evaluations=3)
    with pytest.raises(PreconditionError):
        QuadratureResult(value=0.0, error_estimate=0.0, evaluations=0)


def test_nonfinite_integrand_is_rejected():
    first_node = 0.5 - 0.5 * numerics._XGK[0]
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=re.escape(f"x = {first_node!r}") + "$"):
            integrate_1d(lambda x: bad, 0.0, 1.0)
    # under the t/(1-t) map the node is named in x, not in t
    with pytest.raises(DomainError, match=r"x = 2\.5$"):
        integrate_1d(lambda x: math.nan if x == 2.5 else 1.0, 0.0, math.inf, scale=2.5)
    # finite values whose weighted sum overflows
    with pytest.raises(DomainError, match="overflows"):
        integrate_1d(lambda x: 1e308, 0.0, 1.0)


LORENTZ_WIDTH = 1e-3

# name -> (f, a, b, scale, exact integral or None)
ORACLE_CASES = {
    "polynomial": (lambda x: 3.0 * x**5 - x * x + 1.0, 0.0, 2.0, 1.0, 31.0 + 1.0 / 3.0),
    "exp-scale-0.1": (lambda x: math.exp(-x), 0.0, math.inf, 0.1, 1.0),
    "exp-scale-1": (lambda x: math.exp(-x), 0.0, math.inf, 1.0, 1.0),
    "exp-scale-10": (lambda x: math.exp(-x), 0.0, math.inf, 10.0, 1.0),
    "inverse-sqrt": (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 1.0, 2.0),
    "log": (math.log, 0.0, 1.0, 1.0, -1.0),
    "narrow-lorentzian": (
        lambda x: LORENTZ_WIDTH / ((x - 0.3) ** 2 + LORENTZ_WIDTH**2), 0.0, 1.0, 1.0,
        math.atan(0.7 / LORENTZ_WIDTH) + math.atan(0.3 / LORENTZ_WIDTH)),
    "j-head": (bare_j_integrand, 0.0, 1.0, 1.0, None),
    "j-tail": (bare_j_integrand, 1.0, math.inf, 1.0, None),
}


@pytest.mark.parametrize("f, a, b, scale, exact", ORACLE_CASES.values(),
                         ids=ORACLE_CASES.keys())
def test_agrees_with_scipy_quad(f, a, b, scale, exact):
    res = integrate_1d(f, a, b, tol=1e-12, scale=scale)
    reference, _ = integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert abs(res.value - reference) <= 1e-12
    if exact is not None:
        assert res.error_estimate >= abs(res.value - exact)


def test_kronrod_rule_is_exact_to_degree_31():
    for k in range(32):
        value, _ = numerics._gk21(lambda x: x**k, 0.0, 1.0)
        assert abs(value - 1.0 / (k + 1)) <= 1e-15, k


def test_evaluations_count_every_call():
    # one rule on the first interval, then two per bisection
    for f, a, b, scale, _ in ORACLE_CASES.values():
        calls = []
        res = integrate_1d(lambda x: calls.append(x) or f(x), a, b, tol=1e-12, scale=scale)
        assert res.evaluations == len(calls)
        rules, rest = divmod(res.evaluations, 21)
        assert rest == 0 and rules % 2 == 1


def test_repeat_calls_are_identical():
    for f, a, b, scale, _ in ORACLE_CASES.values():
        first = integrate_1d(f, a, b, tol=1e-12, scale=scale)
        assert repr(integrate_1d(f, a, b, tol=1e-12, scale=scale)) == repr(first)


def test_radial_grid_invariants():
    grid = uniform_radial_grid(400, 40.0)
    assert np.all(grid.nodes > 0)
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)
    assert grid.n_nodes == 400


def test_radial_refinement_monotone():
    # exp(-r) has nonzero odd derivatives at r = 0, so the trapezoid rule
    # converges only algebraically here -- but monotonically
    errs = []
    for n in (48, 96, 192):
        grid = uniform_radial_grid(n, 40.0)
        errs.append(abs(grid.weights @ np.exp(-grid.nodes) - 8.0 * math.pi))
    assert errs[0] > errs[1] > errs[2]


def test_grid_construction_errors():
    with pytest.raises(PreconditionError):
        RadialGrid(nodes=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]), r_max=1.0)
    with pytest.raises(PreconditionError):
        RadialGrid(nodes=np.array([0.5, 1.0]), weights=np.array([1.0, -1.0]), r_max=1.0)


def test_uniform_grid_structure():
    grid = uniform_radial_grid(100, 10.0)
    h = 0.1
    assert np.allclose(np.diff(grid.nodes), h, rtol=0, atol=1e-14)
    assert grid.nodes[0] == pytest.approx(h)
    assert grid.nodes[-1] == pytest.approx(10.0)
    # trapezoid weights 4 pi r^2 h, halved at the right endpoint
    assert grid.weights[3] == pytest.approx(4 * math.pi * grid.nodes[3] ** 2 * h)
    assert grid.weights[-1] == pytest.approx(2 * math.pi * 100.0 * h)


def test_uniform_grid_superconvergence():
    # r^2 * (smooth even, decayed at r_max): all odd endpoint derivatives
    # vanish, so the trapezoid rule converges far beyond O(h^2)
    exact = (2 * math.pi) ** 1.5  # integral of 4 pi r^2 exp(-r^2/2)
    grid = uniform_radial_grid(400, 20.0)
    val = grid.weights @ np.exp(-grid.nodes**2 / 2)
    assert abs(val - exact) < 1e-12 * exact


def test_uniform_grid_validation():
    with pytest.raises(PreconditionError):
        uniform_radial_grid(4, 10.0)
    with pytest.raises(DomainError):
        uniform_radial_grid(100, -1.0)


def test_seed_words():
    words = seed_words(1905, 5)
    expected = np.random.SeedSequence(1905).generate_state(5, dtype=np.uint64)
    assert words == [int(w) for w in expected]
    assert all(type(w) is int for w in words)
    assert seed_words(1905, 3) == words[:3]
    with pytest.raises(PreconditionError):
        seed_words(-1, 5)
    with pytest.raises(ResourceLimitError, match="exceed cap"):
        seed_words(1905, numerics.SEED_WORDS_CAP + 1)


@pytest.mark.parametrize("seed", [0, 1, 1905, 2**32 - 1, 2**32, 2**64 - 1, 2**200 + 7])
def test_seed_words_match_seed_sequence(seed):
    # numpy's SeedSequence is the oracle; the port's arithmetic wraps only
    # in arrays and Python ints, so no scalar overflow warns
    for count in (1, 2, 10, 3000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = seed_words(seed, count)
        expected = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
        assert words == expected.tolist(), (seed, count)


@pytest.mark.parametrize("block", [1, 7, 40])
def test_trial_blocks_slice_the_seed_words(block):
    seeds, blocks = numerics.trial_blocks(1905, 40, block)
    assert seeds.dtype == np.uint64 and seeds.tolist() == seed_words(1905, 40)
    blocks = list(blocks)
    sizes = [min(block, 40 - start) for start in range(0, 40, block)]
    assert [seeds[rows].size for rows in blocks] == sizes
    assert [seed for rows in blocks for seed in seeds[rows].tolist()] == seeds.tolist()
    # each block is a view of the one seed array, not a copy
    assert all(np.shares_memory(seeds[rows], seeds) for rows in blocks)


def test_trial_blocks_check_the_count_before_drawing():
    with pytest.raises(PreconditionError, match="trials"):
        numerics.trial_blocks(1905, 0, 7)
    # 10^11 seed words alone would be 745 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="exceed cap"):
            numerics.trial_blocks(1905, 10**11, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("replay", [
    lambda seed: correlation.replay_trial("onsager", seed),
    lambda seed: matrixloc.replay_trial(seed, 4),
    trialstate.replay_trial,
], ids=["correlation", "matrixloc", "trialstate"])
def test_replays_take_uint64_trial_seeds(replay):
    assert numerics.trial_stack(2**64 - 1).tolist() == [2**64 - 1]
    replay(0)
    replay(2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(PreconditionError, match="trial_seed must be a uint64 word"):
            replay(seed)


def _box_muller_reference(seed, count):
    """The first `count` normals of the stream seeded at `seed`, from
    Python ints and the math module."""
    words = [int(w) >> 11 for w in splitmix64(np.array([seed], dtype=np.uint64), 0,
                                             count + count % 2)[0]]
    out = []
    for a, b in zip(words[0::2], words[1::2]):
        radius = math.sqrt(-2.0 * math.log((a + 1) * 2.0**-53))
        angle = 2.0 * math.pi * (b * 2.0**-53)
        out += [radius * math.cos(angle), radius * math.sin(angle)]
    return out[:count]


def _box_muller_arrays(seeds, first, count):
    """`normals` as it was computed with whole-array temporaries, which
    the buffers it computes in now must reproduce bit for bit."""
    words = splitmix64(seeds, first, numerics.normal_words(count)) >> np.uint64(11)
    radius = np.sqrt(-2.0 * np.log((words[:, 0::2] + 1) * 2.0**-53))
    angle = (2.0 * math.pi * 2.0**-53) * words[:, 1::2]
    out = np.empty(words.shape)
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out[:, :count]


def _traced_peak(run):
    """The peak of the memory traced while `run()` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNormals:
    @pytest.mark.parametrize("first, count", [(0, 4096), (3, 63), (0, 64), (5, 7), (1, 1),
                                              (0, 2), (11, 4097)])
    def test_equal_to_the_whole_array_expression(self, first, count):
        seeds = np.array(seed_words(1905, 16), dtype=np.uint64)
        assert np.array_equal(normals(seeds, first, count),
                              _box_muller_arrays(seeds, first, count))

    def test_memory_is_the_output_and_half_of_it(self):
        # the output and its half-size buffer are 1.5 times the output; the
        # whole-array expression peaked at 3.5 times
        seeds = np.array(seed_words(1905, 16), dtype=np.uint64)
        output = normals(seeds, 0, 4096).nbytes
        assert _traced_peak(lambda: normals(seeds, 0, 4096)) <= 1.6 * output
        assert _traced_peak(lambda: _box_muller_arrays(seeds, 0, 4096)) > 3 * output

    def test_known_answer(self):
        # the first normals of the stream seeded at 0; their last bits
        # depend on the SIMD kernels of log, cos and sin
        z = normals(np.zeros(1, dtype=np.uint64), 0, 5)[0]
        assert z.tolist() == pytest.approx(
            [-0.452757740217458, 0.20776603893419193, 2.650605812079669,
             -0.4904228253986477, -0.9886041246243269], rel=1e-14, abs=1e-15)
        assert z.tolist() == pytest.approx(_box_muller_reference(0, 5), rel=1e-14, abs=1e-15)

    def test_odd_counts_drop_the_last_sine(self):
        seeds = np.array(seed_words(7, 6), dtype=np.uint64)
        whole = normals(seeds, 3, 12)
        for count in (1, 5, 11):
            assert np.array_equal(normals(seeds, 3, count), whole[:, :count])
        # pair k takes words first + 2k, first + 2k + 1 alone
        assert np.array_equal(normals(seeds, 7, 4), whole[:, 4:8])

    def test_extreme_words_give_finite_normals(self, monkeypatch):
        for word, first in ((0, math.sqrt(106.0 * math.log(2.0))), (2**64 - 1, 0.0)):
            monkeypatch.setattr(numerics, "_splitmix64_into",
                                lambda words, *rest, word=word: words.fill(word))
            z = normals(np.zeros(3, dtype=np.uint64), 0, 7)
            assert np.all(np.isfinite(z))
            assert z[:, 0] == pytest.approx(first, rel=1e-15)
            assert np.all(np.abs(z[:, 1::2]) <= 1e-15 * max(first, 1.0))

    def test_moments(self):
        z = normals(np.array(seed_words(1905, 200), dtype=np.uint64), 0, 500)
        assert abs(z.mean()) < 0.01 and abs(z.var() - 1.0) < 0.01
