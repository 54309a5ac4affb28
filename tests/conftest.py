import numpy as np
import pytest

# criterion number -> (description, passed, detail)
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def batch_max_runs(codes: np.ndarray) -> np.ndarray:
    """Longest homopolymer run per row of a (n, length) code matrix."""
    eq = (codes[:, 1:] == codes[:, :-1]).astype(np.int32)
    run = np.zeros(codes.shape[0], np.int32)
    best = np.zeros(codes.shape[0], np.int32)
    for j in range(eq.shape[1]):
        run = (run + 1) * eq[:, j]
        np.maximum(best, run, out=best)
    return best + 1


def record_criterion(num: int, description: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[num] = (description, passed, detail)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        description, passed, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if passed else "FAIL"
        line = f"criterion {num:2d} {status} - {description}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
