import random

import pytest
from hypothesis import HealthCheck, settings

from pamod import Model, MultiGraph, generate

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# one line per acceptance criterion, printed after the test summary so
# they stay visible under output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus():
    """A small bank of generated graphs shared across tests.

    Keyed by (model, h, n, seed).  Session scoped because generation at
    these sizes is cheap but the same graphs get reused by many tests.
    """
    graphs = {}
    for model in Model:
        for h in (1, 2, 3):
            for n in (2, 4, 6, 9):
                for seed in (0, 1, 12345):
                    _, g = generate(model, h, n, seed)
                    graphs[(model, h, n, seed)] = g
    return graphs


@pytest.fixture(scope="session")
def multigraphs():
    """Forty seeded random multigraphs with loops and multi-edges, n <= 12;
    every other one has the tilde model's weight-1 first loop."""
    rnd = random.Random(11)
    graphs = []
    for i in range(40):
        n = rnd.randint(1, 12)
        pairs = [
            (rnd.randint(1, n), rnd.randint(1, n)) for _ in range(rnd.randint(0, 3 * n))
        ]
        graphs.append(MultiGraph.from_pairs(n, pairs, first_loop_weight1=bool(i % 2)))
    return graphs
