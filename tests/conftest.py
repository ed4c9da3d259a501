import numpy as np
import pytest

from maxentkit.bench import BenchmarkConfig, run_benchmark

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


DIAGNOSTICS: list[tuple[str, str]] = []


def record_acceptance(name: str, ok: bool, detail: str) -> None:
    """Collect one pass/fail verdict for the end-of-run summary."""
    ACCEPTANCE_RESULTS.append((name, ok, detail))
    assert ok, f"FAIL {name}: {detail}"


def record_diagnostic(name: str, detail: str) -> None:
    """Collect one reported, never asserted, line for the end-of-run
    summary."""
    DIAGNOSTICS.append((name, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for name, ok, detail in ACCEPTANCE_RESULTS:
            verdict = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"{verdict} {name}: {detail}")
    if DIAGNOSTICS:
        terminalreporter.section("diagnostics (reported, not gating)")
        for name, detail in DIAGNOSTICS:
            terminalreporter.write_line(f"{name}: {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def smoke_report():
    """Five-realization benchmark sweep shared by the acceptance tests.

    Set MAXENTKIT_ACCEPTANCE_FULL=1 to run the full fifty realizations
    instead (about 45 minutes on one core).
    """
    import os

    realizations = 50 if os.environ.get("MAXENTKIT_ACCEPTANCE_FULL") else 5
    config = BenchmarkConfig(n_realizations=realizations, seed=0)
    return run_benchmark(config)
