import pytest

from padiclearn.learner import SampleSet, learn
from padiclearn.nim import BENCHMARK_PARAMS, generate_p_positions


@pytest.fixture(scope="session")
def benchmark_estimate():
    """The stock model, learned once per test session."""
    return learn(SampleSet(BENCHMARK_PARAMS, generate_p_positions(3, 100)))
