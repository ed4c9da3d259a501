"""End-to-end acceptance checks.

Every test here records one PASS/FAIL line for the terminal summary via
``record_acceptance``.  The benchmark-wide checks share the session
``smoke_report`` fixture; export MAXENTKIT_ACCEPTANCE_FULL=1 to rerun
them on the full-size sweep instead.
"""

import itertools
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy.stats import kstest

from conftest import record_acceptance, record_diagnostic
from maxentkit.bench import BenchmarkConfig, report_csv, run_benchmark, summary_csv, truth_csv
from maxentkit.constraints import CoefficientMatrix, kernel_basis
from maxentkit.ising import (
    SpinModel,
    boltzmann,
    enumerate_models,
    product_rows,
    random_params,
    to_coefficients,
)
from maxentkit.selection import (
    asymptotic_test_error,
    asymptotic_training_error,
    mc_test_error,
    mc_training_error,
)
from maxentkit.simplex import entropy
from maxentkit.solver import fit_linear_system, sample_equivalence_class

G_ISING = ((1, 2, 3), (1, 2, 4), (3, 5), (4, 5))


def random_marginal_system(rng, max_spins=6):
    """Random spin-marginal system: the product moments of a closed
    interaction family, with moments induced by an interior law."""
    n_spins = int(rng.integers(2, max_spins + 1))
    n_states = 2 ** n_spins
    generators = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, min(3, n_spins) + 1))
        spins = rng.choice(n_spins, size=size, replace=False) + 1
        generators.append(tuple(sorted(int(s) for s in spins)))
    model = SpinModel.from_interactions(generators, n_spins)
    rows = to_coefficients(model).rows
    p = rng.dirichlet(np.full(n_states, 2.0))
    return CoefficientMatrix(rows, rows @ p)


def random_moment_system(rng, max_spins=5, max_rows=6):
    """Arbitrary (not necessarily closed) product-moment constraints."""
    n_spins = int(rng.integers(2, max_spins + 1))
    n_states = 2 ** n_spins
    subsets = set()
    n_rows = min(int(rng.integers(1, max_rows + 1)), n_states - 1)
    while len(subsets) < n_rows:
        mask = int(rng.integers(1, n_states))
        subsets.add(tuple(i + 1 for i in range(n_spins) if mask >> i & 1))
    rows = np.vstack(
        [np.ones(n_states), product_rows(sorted(subsets), n_spins)]
    )
    p = rng.dirichlet(np.full(n_states, 2.0))
    return CoefficientMatrix(rows, rows @ p)


def test_solver_cross_validation():
    """Newton and proportional fitting agree on random marginal systems,
    hit the residual tolerance, and return exponential-family solutions."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_gap = worst_residual = worst_expform = 0.0
    for _ in range(200):
        system = random_marginal_system(rng)
        newton = fit_linear_system(system, method="newton")
        ipf = fit_linear_system(system, method="ipf")
        worst_gap = max(
            worst_gap, float(np.max(np.abs(newton.probabilities - ipf.probabilities)))
        )
        worst_residual = max(
            worst_residual, newton.solution.residual, ipf.solution.residual
        )
        # log of the solution must lie in the row space of the
        # canonical constraint matrix.
        rows = newton.architecture.rows
        log_p = np.log(newton.probabilities)
        coef, *_ = np.linalg.lstsq(rows.T, log_p, rcond=None)
        worst_expform = max(
            worst_expform, float(np.max(np.abs(log_p - rows.T @ coef)))
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_gap <= 1e-8
        and worst_residual <= 1e-10
        and worst_expform < 1e-8
        and elapsed < 60.0
    )
    record_acceptance(
        "solver agreement on 200 random marginal systems",
        ok,
        f"newton-ipf gap {worst_gap:.2e} (<=1e-8), residual "
        f"{worst_residual:.2e} (<=1e-10), exponential-form deviation "
        f"{worst_expform:.2e} (<1e-8), {elapsed:.1f}s (<60s)",
    )


def test_projection_identity():
    """The fitted distribution is the information projection: for every
    class member p, sum((p - phat) log phat) vanishes."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        system = random_moment_system(rng)
        fit = fit_linear_system(system)
        kernel = kernel_basis(fit.architecture, fit.solution.distribution)
        p_hat = fit.solution.distribution.probs
        log_p = np.log(p_hat)
        if kernel.dim == 0:
            continue
        for _ in range(100):
            draw = sample_equivalence_class(fit.solution, kernel, 10_000, rng)
            worst = max(worst, abs(float(np.dot(draw.probs - p_hat, log_p))))
    ok = worst < 1e-8
    record_acceptance(
        "projection identity over 50 systems x 100 class samples",
        ok,
        f"max |sum((p - phat) log phat)| = {worst:.2e} (<1e-8)",
    )


def test_entropy_gap_distribution():
    """2N (H[phat] - H[p]) over the equivalence class follows a
    chi-square with one degree per free direction, and the mean entropy
    gap vanishes as 1/N."""
    start = time.perf_counter()
    model = SpinModel.from_interactions([(1, 2), (3,)], 3)
    params = random_params(model, np.random.default_rng(21))
    anchor = boltzmann(params)
    fit = fit_linear_system(to_coefficients(model, anchor))
    kernel = kernel_basis(fit.architecture, fit.solution.distribution)
    p_hat = fit.solution.distribution.probs
    h_hat = entropy(p_hat)
    dof = fit.degrees_of_freedom
    rng = np.random.default_rng(22)

    n_big = 1e8
    stats = np.empty(5000)
    for t in range(stats.size):
        draw = sample_equivalence_class(fit.solution, kernel, n_big, rng)
        stats[t] = 2.0 * n_big * (h_hat - entropy(draw.probs))
    ks = kstest(stats, "chi2", args=(dof,)).statistic

    sizes = np.array([1e4, 1e5, 1e6, 1e7, 1e8])
    means = np.empty(sizes.size)
    for k, n in enumerate(sizes):
        gaps = [
            h_hat - entropy(sample_equivalence_class(fit.solution, kernel, n, rng).probs)
            for _ in range(2000)
        ]
        means[k] = np.mean(gaps)
    slope, intercept = np.polyfit(1.0 / sizes, means, 1)
    elapsed = time.perf_counter() - start

    ok = ks < 0.03 and abs(intercept) < 1e-3 and elapsed < 60.0
    record_acceptance(
        "entropy-gap concentration on a 3-spin class",
        ok,
        f"KS distance to chi-square({dof}) = {ks:.4f} (<0.03) over 5000 draws "
        f"at N=1e8; mean-gap intercept {intercept:.2e} (<1e-3, slope "
        f"{slope:.2f}~{dof / 2}); {elapsed:.1f}s (<60s)",
    )


def _monotone_functions_on_four_points():
    """All monotone 0/1 functions on the subsets of a 4-set, as 16-bit
    masks indexed by subset."""
    funcs = np.arange(1 << 16, dtype=np.uint32)
    keep = np.ones(funcs.size, dtype=bool)
    for s in range(16):
        for t in range(16):
            if s != t and (s | t) == t:
                keep &= ~(((funcs >> s) & 1) > ((funcs >> t) & 1))
    return funcs[keep]


def _downward_closed_census(n_spins):
    """Count downward-closed families of non-empty subsets by filtering
    the full power set, independently of the package's enumerator."""
    subsets = [
        frozenset(c)
        for r in range(1, n_spins + 1)
        for c in itertools.combinations(range(1, n_spins + 1), r)
    ]
    count = 0
    for bits in range(2 ** len(subsets)):
        fam = {s for j, s in enumerate(subsets) if bits >> j & 1}
        if all(
            frozenset(sub) in fam
            for s in fam
            for r in range(1, len(s))
            for sub in itertools.combinations(sorted(s), r)
        ):
            count += 1
    return count


def test_model_census():
    """The five-spin enumeration is pinned by two independent oracles:
    brute-force filtering for up to three spins, and the pair recursion
    for monotone set functions at five."""
    brute = {L: _downward_closed_census(L) for L in (1, 2, 3)}
    enum_counts = {L: len(enumerate_models(L)) for L in (1, 2, 3, 4)}

    monotone = _monotone_functions_on_four_points()
    # A monotone function on a 5-set is an ordered pointwise pair on the
    # 4-set; families of non-empty subsets drop the constant-true-on-
    # empty-set case, hence the minus one.
    pairs = sum(
        int(np.count_nonzero((g & ~monotone) == 0)) for g in monotone
    )
    oracle_5 = pairs - 1
    count_5 = len(enumerate_models(5))

    ok = (
        brute == {1: 2, 2: 5, 3: 19}
        and enum_counts == {1: 2, 2: 5, 3: 19, 4: 167}
        and monotone.size == 168
        and oracle_5 == 7580
        and count_5 == 7580
    )
    record_acceptance(
        "candidate-model census",
        ok,
        f"enumerated {count_5} five-spin models == pair-recursion oracle "
        f"{oracle_5} (168 monotone functions); brute-force census {brute} "
        f"matches enumeration {enum_counts}",
    )


def _truth_setup():
    truth = SpinModel.from_interactions(G_ISING, 5)
    q = boltzmann(random_params(truth, np.random.default_rng(4)))
    return truth, q


def test_training_error_asymptote():
    """Training error of the generating architecture approaches
    (rank - 1) / 2."""
    truth, q = _truth_setup()
    est = mc_training_error(
        to_coefficients(truth), q, 10**6, 200, np.random.default_rng(71)
    )
    target = asymptotic_training_error(truth.rank)
    ok = abs(est.mean - target) <= 3 * est.std_error
    record_acceptance(
        "training-error asymptote of the generating architecture",
        ok,
        f"mean {est.mean:.3f} vs {target} (rank {truth.rank}), "
        f"|diff| {abs(est.mean - target):.3f} <= 3 SE = {3 * est.std_error:.3f} "
        f"(200 trials at N=1e6)",
    )


def test_test_error_asymptote():
    """Held-out error of the generating architecture approaches
    (states + rank - 2) / 2, and dropping a true pair interaction makes
    it grow with the sample size instead."""
    truth, q = _truth_setup()
    est = mc_test_error(
        to_coefficients(truth), q, 10**6, 150, 20, np.random.default_rng(72)
    )
    target = asymptotic_test_error(truth.n_states, truth.rank)
    ok_truth = abs(est.mean - target) <= 3 * est.std_error

    missing = SpinModel.from_interactions([(1, 2, 3), (1, 2, 4), (3, 5)], 5)
    rng = np.random.default_rng(73)
    small = mc_test_error(to_coefficients(missing), q, 10**4, 30, 10, rng)
    large = mc_test_error(to_coefficients(missing), q, 10**6, 30, 10, rng)
    ok_missing = large.mean >= 10 * small.mean

    record_acceptance(
        "test-error asymptote and misspecification growth",
        ok_truth and ok_missing,
        f"truth mean {est.mean:.2f} vs {target}, |diff| "
        f"{abs(est.mean - target):.2f} <= 3 SE = {3 * est.std_error:.2f}; "
        f"missing-pair error {small.mean:.0f} -> {large.mean:.0f} "
        f"(x{large.mean / small.mean:.0f} >= x10 from N=1e4 to 1e6)",
    )


def _accuracy_curves(report):
    sizes = report.config.sample_sizes
    table = {(s.method, s.n): s for s in report.summary()}
    return sizes, table


@pytest.mark.slow
def test_benchmark_recovery_ordering(smoke_report):
    """Across the sweep, the consistent selectors recover the truth
    monotonically and nearly surely at the largest size, while the
    fixed-penalty selector plateaus below them with spurious couplings."""
    sizes, table = _accuracy_curves(smoke_report)
    consistent = ("bic", "hyper_maxent", "hyper_maxent_lrt")
    problems = []
    finals = {}
    for method in consistent + ("aic",):
        curve = [table[(method, n)].accuracy for n in sizes]
        finals[method] = curve[-1]
        if method in consistent:
            if any(b < a - 0.02 for a, b in zip(curve, curve[1:])):
                problems.append(f"{method} not monotone: {curve}")
            if curve[-1] < 0.95:
                problems.append(f"{method} final accuracy {curve[-1]:.2f} < 0.95")
    aic_fp = table[("aic", sizes[-1])].mean_fp
    if not finals["aic"] < min(finals[m] for m in consistent):
        problems.append(f"aic final {finals['aic']:.2f} not below {consistent}")
    if not aic_fp > 0:
        problems.append("aic has no false positives at the largest size")
    summary = ", ".join(
        f"{m} {table[(m, sizes[0])].accuracy:.2f}->{finals[m]:.2f}"
        for m in consistent + ("aic",)
    )
    record_acceptance(
        "benchmark recovery ordering",
        not problems,
        "; ".join(problems) if problems else f"{summary}; aic fp rate at top size {aic_fp:.3f} > 0",
    )


def _poisson_binomial_upper_tail(probs, k):
    """P(F >= k) for F a sum of independent Bernoulli(probs[i])."""
    pmf = np.zeros(len(probs) + 1)
    pmf[0] = 1.0
    for i, p in enumerate(probs, start=1):
        pmf[1 : i + 1] = pmf[1 : i + 1] * (1.0 - p) + pmf[:i] * p
        pmf[0] *= 1.0 - p
    return float(min(1.0, pmf[k:].sum()))


@pytest.mark.slow
def test_truth_threshold_pass_rate(smoke_report):
    """The generating architecture fails its sample-size-scaled p-value
    threshold no more often than the chi-square law allows.

    Under that law the truth fails sample i with probability alpha_i,
    so the number of fails at each size is Poisson-binomial in the
    per-sample alphas; an upper tail below 1e-3 means the p-value
    rejects the truth too often. Where the law itself promises a 99%
    pass rate (mean alpha <= 0.01), the rate must also reach 0.99.
    """
    by_n = defaultdict(list)
    for row in smoke_report.truth_rows:
        by_n[row.n].append(row)
    problems = []
    parts = []
    for n, rows in sorted(by_n.items()):
        alphas = np.clip([row.alpha for row in rows], 0.0, 1.0)
        fails = sum(not row.passed for row in rows)
        rate = 1.0 - fails / len(rows)
        tail = _poisson_binomial_upper_tail(alphas, fails)
        parts.append(
            f"N={n}: {rate:.3f} (1-mean alpha {1.0 - alphas.mean():.3f}, "
            f"{fails} fails vs {alphas.sum():.2f} expected, tail {tail:.2g})"
        )
        if tail < 1e-3:
            problems.append(f"N={n} tail {tail:.2g} < 1e-3")
        if alphas.mean() <= 0.01 and rate < 0.99:
            problems.append(f"N={n} rate {rate:.3f} < 0.99 where mean alpha <= 0.01")
    record_acceptance(
        "generating architecture clears its threshold",
        not problems,
        "; ".join(parts)
        + " (fail-count tail >= 1e-3 at every size; rate >= 0.99 where "
        "mean alpha <= 0.01)"
        + (": " + "; ".join(problems) if problems else ""),
    )


@pytest.mark.slow
def test_truth_p_value_calibration(smoke_report):
    """Reports, without asserting, how far the truth's p-values are from
    U(0, 1) at each size: the KS distance D and the fraction below 0.01,
    0.05 and 0.1, over the samples where the truth's fit is valid."""
    by_n = defaultdict(list)
    for row in smoke_report.truth_rows:
        if row.valid:
            by_n[row.n].append(row.p_value)
    for n, p in sorted(by_n.items()):
        p = np.array(p)
        below = ", ".join(f"P(p<{a:g}) {np.mean(p < a):.3f}" for a in (0.01, 0.05, 0.1))
        record_diagnostic(
            f"truth p-value calibration N={n}",
            f"KS D {kstest(p, 'uniform').statistic:.3f} over {p.size} samples; {below}",
        )


@pytest.mark.slow
def test_benchmark_determinism(tmp_path):
    """Reports are byte-identical across repeat runs and thread counts."""
    base = dict(
        sample_sizes=(100, 1000),
        n_realizations=1,
        n_samples=2,
        test_samples=5,
        seed=0,
    )
    rep_a = run_benchmark(BenchmarkConfig(**base))
    rep_b = run_benchmark(BenchmarkConfig(**base))
    rep_c = run_benchmark(BenchmarkConfig(**base, threads=2))
    texts = [
        (report_csv(r), truth_csv(r), summary_csv(r)) for r in (rep_a, rep_b, rep_c)
    ]
    ok = texts[0] == texts[1] == texts[2]
    record_acceptance(
        "benchmark determinism",
        ok,
        "report, truth, and summary tables byte-identical across two runs "
        "and thread counts 1 vs 2"
        if ok
        else "outputs differ between runs or thread counts",
    )
