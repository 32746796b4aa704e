import pytest

from robust_snell import CrrParams, PriorSet, fixtures


@pytest.fixture(scope="session")
def tt1():
    return fixtures.load("tt1")


@pytest.fixture(scope="session")
def tt3():
    return fixtures.load("tt3")


@pytest.fixture(scope="session")
def tt4():
    return fixtures.load("tt4")


@pytest.fixture(scope="session")
def tt4_single(tt4):
    """TT4 with the one-element prior class containing only the reference."""
    return tt4.tree, tt4.payoff, PriorSet.singleton_reference(tt4.tree)


@pytest.fixture(scope="session")
def crr_put():
    """The drift-ambiguity knock-in put at 12 steps (8,191 nodes)."""
    return CrrParams(
        S0=5.0, up=1.1, down=0.9, steps=12, rate=0.0, K=5.0, H=3.8,
        q_up=0.5, ambiguity=(0.4, 0.6),
    )
