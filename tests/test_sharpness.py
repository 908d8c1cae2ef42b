"""Extremal families: closed forms, construction fidelity, and growth sweeps."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from moilab import sharpness
from moilab.bounds import check_haagerup_main
from moilab.evaluate import eval_haagerup, eval_oracle, moi_scale
from moilab.integrands import rep_norm_bound
from moilab.linalg import INF, schatten_norm, sequence_norm
from moilab.sharpness import (
    BUILD_CAP,
    MAX_ARITY,
    REGIMES,
    ConstructionCase,
    ConstructionCheckError,
    build_construction,
    default_case,
    default_sequences,
    expected_diag,
    growth_sweep,
    sharp_r,
    sweep_csv,
)
from moilab.spectral import cyclic_model, integrate_scalar

# every (arity, regime) family with representative exponents
ALL_CASES = [
    (3, "both-large", 4.0, 2.0),
    (3, "both-small", 2.0, 2.0),
    (3, "mixed-large-small", 4.0, 2.0),
    (3, "mixed-small-large", 2.0, 4.0),
    (4, "both-large", 4.0, 4.0),
    (4, "both-small", 1.5, 2.0),
    (4, "mixed-large-small", 4.0, 1.5),
    (4, "mixed-small-large", 2.0, 3.0),
    (5, "both-large", 4.0, 3.0),
    (5, "both-small", 1.5, 1.0),
    (5, "mixed-large-small", 3.0, 1.0),
    (5, "mixed-small-large", 1.5, 4.0),
    (6, "both-large", 2.0, 4.0),
    (6, "both-small", 2.0, 1.5),
    (6, "mixed-large-small", 4.0, 2.0),
    (6, "mixed-small-large", 1.0, 6.0),
]

# sum_{j < inf} 1/((j+1) log^2(j+2)): numerical partial sum to 1e6 plus the
# integral-test tail 1/log(1e6)
BUDGET_SERIES_BOUND = 3.3877355352008705


def test_sharp_r_values():
    assert abs(sharp_r(4, 2) - 4.0 / 3.0) < 1e-15
    assert sharp_r(2, 2) == 1.0
    assert sharp_r(1.5, 1.2) == 1.0
    assert sharp_r(4, 4) == 2.0
    assert sharp_r(np.inf, 2) == 2.0


def test_default_sequences_single_point():
    c, d = default_sequences("both-large", 2, 2, 1)
    assert abs(c[0] - 1.4426950408889634) < 1e-15
    assert abs(d[0] - 1.4426950408889634) < 1e-15


def test_default_sequences_both_small_uses_ones():
    c, d = default_sequences("both-small", 2, 2, 5)
    assert np.all(c == 1.0)
    assert np.all(np.diff(d) < 0)


def test_budget_norms_bounded_uniformly():
    # l^p budgets of the default sequences stay below the full-series bound
    c, d = default_sequences("mixed-large-small", 4, 2, 4096)
    assert sequence_norm(c, 4) ** 4 <= BUDGET_SERIES_BOUND
    assert sequence_norm(d, 2) ** 2 <= BUDGET_SERIES_BOUND
    c_small, _ = default_sequences("mixed-large-small", 4, 2, 64)
    assert sequence_norm(c_small, 4) <= sequence_norm(c, 4)


def test_product_series_converges_at_critical_exponent():
    # sum (c_j d_j)^r behaves like sum 1/((j+1) log^2), with integral-test
    # increments; partial sums up to 1e6
    r = sharp_r(4, 2)
    j = np.arange(10**6, dtype=float)
    w = (j + 1.0) ** (-1.0 / r) * np.log(j + 2.0) ** (-2.0 / r)
    sums = np.cumsum(w**r)
    assert sums[-1] <= BUDGET_SERIES_BOUND
    increment = sums[-1] - sums[10**5 - 1]
    integral_bound = 1.0 / np.log(1e5) - 1.0 / np.log(1e6)
    assert increment <= integral_bound * (1.0 + 1e-4)


def test_case_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        default_case(3, "both-large", 1.5, 2, 4)
    with pytest.raises(ValueError, match="inconsistent"):
        default_case(3, "mixed-large-small", 4, 3, 4)
    with pytest.raises(ValueError, match="regime"):
        default_case(3, "sideways", 2, 2, 4)
    for arity in (2, MAX_ARITY + 1):
        with pytest.raises(ValueError, match=rf"arity must be an integer in \[3, {MAX_ARITY}\]"):
            default_case(arity, "both-large", 2, 2, 4)
    with pytest.raises(ValueError):
        ConstructionCase(3, "both-large", 2, 2, 3, np.ones(2), np.ones(3))


@pytest.mark.parametrize("arity, n, field", [
    (3, 8.0, "truncation n"),
    (4, True, "truncation n"),
    (4.0, 8, "arity"),
    (True, 8, "arity"),
    ("4", 8, "arity"),
    (4, 0, "truncation n"),
])
def test_case_refuses_a_non_integral_arity_or_n(arity, n, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ConstructionCase(arity, "both-large", 4, 4, n, np.ones(8), np.ones(8))
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        build_construction(default_case(arity, "both-large", 4, 4, n))


def test_case_takes_numpy_integers_as_ints():
    case = default_case(np.int64(5), "both-large", 4, 4, np.int32(6))
    assert (type(case.arity), type(case.n)) == (int, int)
    assert (case.arity, case.n) == (5, 6)


def test_expected_diag_both_small_single_mass():
    case = ConstructionCase(
        3, "both-small", 2, 2, 3, np.ones(3), np.array([1.0, 0.0, 0.0])
    )
    expected = np.diag(expected_diag(case))
    p0 = np.zeros((3, 3))
    p0[0, 0] = 1.0
    assert schatten_norm(expected - p0, INF) < 1e-15


def test_expected_diag_mixed_indicator():
    c = np.array([0.0, 2.0, 0.0])
    d = np.array([0.0, 0.5, 0.0])
    case = ConstructionCase(3, "mixed-large-small", 4, 2, 3, c, d)
    expected = np.diag(expected_diag(case))
    assert abs(expected[1, 1] - 1.0) < 1e-15
    assert schatten_norm(expected, INF) == pytest.approx(1.0)


@pytest.mark.parametrize("arity,regime,p1,pm1", ALL_CASES)
def test_construction_norm_is_one(arity, regime, p1, pm1):
    inst = build_construction(default_case(arity, regime, p1, pm1, 6))
    assert abs(rep_norm_bound(inst.integrand) - 1.0) <= 1e-12


@pytest.mark.parametrize("arity,regime,p1,pm1", ALL_CASES)
def test_construction_fidelity_small(arity, regime, p1, pm1):
    case = default_case(arity, regime, p1, pm1, 8)
    inst = build_construction(case)
    w = eval_haagerup(inst)
    assert schatten_norm(w - np.diag(expected_diag(case)), INF) <= 1e-10 * moi_scale(inst)


@pytest.mark.parametrize("arity,regime,p1,pm1", ALL_CASES)
def test_construction_matches_atomwise_oracle(arity, regime, p1, pm1):
    case = default_case(arity, regime, p1, pm1, 4)
    inst = build_construction(case)
    w = eval_oracle(inst)
    assert schatten_norm(w - np.diag(expected_diag(case)), INF) <= 1e-10 * moi_scale(inst)


@pytest.mark.parametrize("arity,regime,p1,pm1", ALL_CASES)
def test_construction_attains_the_main_chain_bound(arity, regime, p1, pm1):
    # the families are the bound's equality cases at p = max(p1, 2), q = max(pm1, 2)
    inst = build_construction(default_case(arity, regime, p1, pm1, 16))
    report = check_haagerup_main(inst, max(p1, 2.0), max(pm1, 2.0))
    assert report.holds
    assert abs(report.ratio - 1.0) <= 1e-12


def test_construction_rule_at_every_arity():
    # (Fourier, m - 2 position measures, Fourier); first, m - 3 copies of p0,
    # last; delta head and tail; the first middle (the characters if the
    # first operator is large), m - 4 tables of ones, the last middle (their
    # conjugates if the last operator is large); at m = 3 one middle, the
    # product of the two
    n = 5
    _, _, chars = cyclic_model(n)  # symmetric: chars[i, j] is character j at atom i
    ones = np.ones((n, n))
    p0 = np.zeros((n, n))
    p0[0, 0] = 1.0
    families = [("both-large", 4, 4), ("both-small", 1, 1.5), ("mixed-large-small", 3, 1),
                ("mixed-small-large", 1, 6)]
    for (regime, p1, pm1), m in itertools.product(families, range(3, MAX_ARITY + 1)):
        case = default_case(m, regime, p1, pm1, n)
        first_large, last_large = case.large_ends
        head = chars if first_large else ones
        tail = np.conj(chars) if last_large else ones
        inst = build_construction(case)
        fourier, position = inst.measures[:2]
        assert inst.measures == (fourier, *[position] * (m - 2), fourier)
        assert len(inst.operators) == m - 1
        assert all(np.array_equal(t, p0) for t in inst.operators[1:-1])
        rep = inst.integrand
        assert np.array_equal(rep.head, np.eye(n)) and np.array_equal(rep.tail, np.eye(n))
        expected = [head * tail] if m == 3 else [head, *[ones] * (m - 4), tail]
        assert len(rep.middles) == len(expected)
        assert all(np.array_equal(mid, e) for mid, e in zip(rep.middles, expected))
    # the both-large middle at m = 3 is chars . conj(chars), 1 up to rounding
    [middle] = build_construction(default_case(3, "both-large", 4, 4, n)).integrand.middles
    assert np.array_equal(middle, chars * np.conj(chars))
    assert np.abs(middle - 1).max() <= 1e-15


def test_growth_sweep_rows_do_not_depend_on_arity():
    # the CSV is the closed form, the same for every arity
    for regime, p1, pm1 in [("both-large", 4, 4), ("both-small", 1, 1.5),
                            ("mixed-large-small", 3, 1), ("mixed-small-large", 1, 6)]:
        r = sharp_r(p1, pm1)
        rows = [growth_sweep(m, regime, p1, pm1, [16, 64], [r, 0.8 * r]) for m in (3, 4, 5, 6)]
        assert rows[1:] == rows[:1] * 3


def test_both_small_paper_identity():
    # the compressed product returns d_j^2 e_j
    n = 5
    case = default_case(3, "both-small", 2, 2, n)
    inst = build_construction(case)
    t1, t2 = inst.operators
    d = case.d
    eye = np.eye(n)
    for j in range(n):
        p = inst.measures[0].projections[j]
        got = p @ t1 @ t2 @ p @ eye[:, j]
        assert np.linalg.norm(got - d[j] ** 2 * eye[:, j]) < 1e-12


def test_mixed_closed_form_any_n():
    case = default_case(3, "mixed-large-small", 4, 2, 12)
    w = eval_haagerup(build_construction(case))
    diag = np.diag(w)
    assert np.allclose(diag, case.c * case.d, atol=1e-12)
    off = w - np.diag(diag)
    assert schatten_norm(off, INF) < 1e-12


def test_m4_both_large_all_ones_gives_projection():
    case = ConstructionCase(4, "both-large", 4, 4, 3, np.ones(3), np.ones(3))
    w = eval_oracle(build_construction(case))
    assert schatten_norm(w - np.eye(3), INF) < 1e-10


def test_m4_middle_operators_unitary_or_identity():
    n = 6
    _, position, characters = cyclic_model(n)
    for j in range(n):
        shift = integrate_scalar(characters[j], position)
        anti = integrate_scalar(np.conj(characters[j]), position)
        assert schatten_norm(shift @ shift.conj().T - np.eye(n), INF) < 1e-12
        assert schatten_norm(anti - shift.conj().T, INF) < 1e-12
    ident = integrate_scalar(np.ones(n), position)
    assert schatten_norm(ident - np.eye(n), INF) < 1e-12


def test_build_cap():
    with pytest.raises(ValueError, match="cap"):
        build_construction(default_case(3, "both-small", 2, 2, BUILD_CAP + 1))


def test_growth_sweep_ratio_is_one_at_critical_exponent():
    for arity, regime, p1, pm1 in ALL_CASES:
        r = sharp_r(p1, pm1)
        rows = growth_sweep(arity, regime, p1, pm1, [16, 64, 256], [r])
        for row in rows:
            assert abs(row.ratio - 1.0) <= 1e-12


def test_growth_sweep_single_point_ratio():
    rows = growth_sweep(3, "mixed-large-small", 4, 2, [1], [1.0])
    assert abs(rows[0].ratio - 1.0) <= 1e-12


def test_growth_sweep_strictly_increasing_below_critical():
    r = sharp_r(4, 2)
    for s in [0.8 * r, r / 2.0]:
        rows = growth_sweep(3, "mixed-large-small", 4, 2, [64, 256, 1024, 4096], [s])
        ratios = [row.ratio for row in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_growth_sweep_lhs_beyond_float_range_is_inf():
    # no cross-check above BUILD_CAP; the suite turns a RuntimeWarning into an error
    [row] = growth_sweep(3, "mixed-large-small", 4, 2, [4096], [0.01])
    assert (row.lhs, row.ratio) == (np.inf, np.inf)
    assert np.isfinite(row.rhs)


def test_growth_sweep_half_critical_doubles():
    # computed beforehand from the closed-form diagonals: the factor is about
    # 6.28 for this family, far above the doubling threshold
    r = sharp_r(4, 2)
    rows = growth_sweep(3, "mixed-large-small", 4, 2, [64, 4096], [r / 2.0])
    factor = rows[1].ratio / rows[0].ratio
    assert factor >= 2.0
    assert abs(factor / 6.283800712808853 - 1.0) <= 0.01


def test_growth_factor_matches_independent_series():
    # independent recomputation of the n = 64 -> 4096 growth factor at
    # s = 0.8 r from the analytic series, compared to the sweep
    r = sharp_r(4, 2)
    s = 0.8 * r
    j = np.arange(4096, dtype=float)
    c = (j + 1.0) ** -0.25 * np.log(j + 2.0) ** -0.5
    d = (j + 1.0) ** -0.5 * np.log(j + 2.0) ** -1.0
    w = c * d
    def ratio(n):
        lhs = np.sum(w[:n] ** s) ** (1.0 / s)
        rhs = np.sum(c[:n] ** 4) ** 0.25 * np.sum(d[:n] ** 2) ** 0.5
        return lhs / rhs
    expected_factor = ratio(4096) / ratio(64)
    rows = growth_sweep(3, "mixed-large-small", 4, 2, [64, 4096], [s])
    got_factor = rows[1].ratio / rows[0].ratio
    assert abs(got_factor - expected_factor) <= 1e-10 * expected_factor


def test_adjoint_regime_sweeps_coincide():
    r = sharp_r(4, 2)
    a = growth_sweep(3, "mixed-large-small", 4, 2, [16, 64, 256], [0.8 * r])
    b = growth_sweep(3, "mixed-small-large", 2, 4, [16, 64, 256], [0.8 * r])
    for ra, rb in zip(a, b):
        assert abs(ra.ratio - rb.ratio) <= 1e-12 * ra.ratio


def test_growth_sweep_monotone_divergence_on_grid():
    for arity, regime, p1, pm1 in ALL_CASES:
        r = sharp_r(p1, pm1)
        rows = growth_sweep(arity, regime, p1, pm1, [32, 128, 512, 2048], [r / 2.0])
        ratios = [row.ratio for row in rows]
        for a, b in zip(ratios, ratios[1:]):
            assert b > a


def test_growth_sweep_validation():
    with pytest.raises(ValueError, match="ascending"):
        growth_sweep(3, "both-small", 2, 2, [64, 64], [1.0])
    with pytest.raises(ValueError, match="cap"):
        growth_sweep(3, "both-small", 2, 2, [16384], [1.0])
    with pytest.raises(ValueError):
        growth_sweep(3, "both-small", 2, 2, [], [1.0])
    with pytest.raises(ValueError, match="truncation n must be an integer >= 1, got 8.5"):
        growth_sweep(3, "both-small", 2, 2, [8.5], [1.0])  # not truncated to 8


@pytest.mark.parametrize("arity, regime, p1, pm1", ALL_CASES)
@pytest.mark.parametrize("n", [8, 64])
def test_cross_check_scale_is_the_operator_norms(arity, regime, p1, pm1, n):
    # the cross-check's tolerance reads the operator norms from the case; it
    # is the scale that SVDs of the operators give, so no looser
    case = default_case(arity, regime, p1, pm1, n)
    inst = build_construction(case)
    closed = rep_norm_bound(inst.integrand) * sharpness._rhs_norms(case, INF)
    by_svd = moi_scale(inst)
    assert abs(closed - by_svd) <= 1e-12 * by_svd


def test_cross_check_takes_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cross-check took an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for arity, regime, p1, pm1 in ALL_CASES:
        growth_sweep(arity, regime, p1, pm1, [16, 64], [sharp_r(p1, pm1)])


def test_growth_sweep_cross_check_runs():
    rows = growth_sweep(3, "mixed-large-small", 4, 2, [8, 16], [1.0])
    assert len(rows) == 2


def test_sweep_csv_format_and_determinism():
    rows = growth_sweep(3, "mixed-large-small", 4, 2, [8, 16], [1.0])
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n,s,p1,pm1,lhs,rhs,ratio"
    assert len(lines) == 3
    assert lines[1].startswith("8,1,4,2,")
    assert text == sweep_csv(rows)


def test_regimes_tuple_stable():
    assert REGIMES == (
        "both-large",
        "both-small",
        "mixed-large-small",
        "mixed-small-large",
    )


@pytest.mark.parametrize(
    "arity, regime, p1, pm1",
    [(3, "mixed-large-small", 4.0, 2.0), (3, "both-large", 4.0, 4.0), (4, "both-large", 4.0, 4.0)],
)
def test_construction_fidelity_at_build_cap(arity, regime, p1, pm1):
    # the norm gate and the cross-check of growth_sweep; the scale is the
    # operator norms read from the case, which equal the SVDs' within 1e-12
    # (test_cross_check_scale_is_the_operator_norms). The norm is 1 within
    # 1e-15: the characters are read from the n roots of unity, not powered
    # (1.5e-13 for the arity-3 both-large family when they were)
    case = default_case(arity, regime, p1, pm1, BUILD_CAP)
    inst = build_construction(case)
    bound = rep_norm_bound(inst.integrand)
    assert abs(bound - 1.0) <= 1e-15
    err = np.abs(eval_haagerup(inst) - np.diag(expected_diag(case))).max()
    assert err <= 1e-10 * bound * sharpness._rhs_norms(case, INF)


def _cross_check_peak(arity, n):
    """The tracemalloc peak of the both-large growth sweep's one cross-check
    at truncation n."""
    tracemalloc.start()
    try:
        with mock.patch.object(sharpness, "eval_haagerup", wraps=eval_haagerup) as check:
            growth_sweep(arity, "both-large", 4, 4, [n], [sharp_r(4, 4)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.call_count == 1
    return peak


@pytest.mark.parametrize("arity", [4, MAX_ARITY])
def test_cross_check_peak_at_n_1024(arity):
    """The both-large cross-check at n = 1024 runs, at arity 4 and at
    MAX_ARITY, and its tracemalloc peak stays within 24 complex n x n
    matrices (384 MiB): the construction's tables, measures and operators,
    the moved diagonal ends and C, with the pinned sweep's (n, rows) states
    beside them; each p0 moves as a pair of n-vectors. It reads 192.2 MiB
    at arity 4 and 208.4 MiB at arity 10. At arity 4 it stays within
    200 MiB: the characters are one table, used as the first middle as they
    are, and the closed form is subtracted from the value in place (208.2 MiB
    with a table of powers, its restacked copy and a dense expected matrix)."""
    peak = _cross_check_peak(arity, 1024)
    assert peak <= 24 * 16 * 1024**2, f"peak {peak / 2**20:.0f} MiB"
    if arity == 4:
        assert peak <= 200 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_cross_check_holds_no_dense_p0():
    """At arity 10 and n = 256, the seven p0 move as pairs of n-vectors
    rather than as dense n x n matrices (1 MiB each): 18.1 MiB of peak, where
    dense moves took 30.0 MiB."""
    peak = _cross_check_peak(10, 256)
    assert peak <= 26 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_cross_check_peak_does_not_grow_with_the_interior_middles():
    """The sweep gathers a table on the pinned bond at the step that reads
    it, one at a time: at n = 256 the arity-10 cross-check peaks within
    1.5 MiB of the arity-4 one (1.1 MiB above it; 2.0 MiB when a row slice
    gathered each distinct table at once, 7.0 MiB when it gathered each
    middle on its own)."""
    assert _cross_check_peak(10, 256) <= _cross_check_peak(4, 256) + 1.5 * 2**20


@pytest.mark.parametrize("perturb", [lambda w: w + 1e-6, lambda w: w * np.nan])
def test_growth_sweep_cross_check_failure_is_a_domain_error(monkeypatch, perturb):
    original = sharpness.eval_haagerup
    monkeypatch.setattr(sharpness, "eval_haagerup", lambda inst: perturb(original(inst)))
    with pytest.raises(ConstructionCheckError, match="cross-check"):
        growth_sweep(3, "both-large", 4.0, 4.0, [16], [2.0])
