import pytest

from flowallometry import FlowNetwork, TradeTable


@pytest.fixture
def three_node_net():
    """Worked example: flows {1->2: 2, 1->3: 1, 2->3: 1}."""
    return FlowNetwork.from_edges(
        {("AAA", "BBB"): 2.0, ("AAA", "CCC"): 1.0, ("BBB", "CCC"): 1.0},
        product="71", year=2000)


@pytest.fixture
def three_node_rows():
    return [
        (2000, "AAA", "BBB", "7100", 2.0),
        (2000, "AAA", "CCC", "7100", 1.0),
        (2000, "BBB", "CCC", "7100", 1.0),
    ]


@pytest.fixture
def three_node_table(three_node_rows):
    return TradeTable.from_rows(three_node_rows)


def random_net(rng, n=None, density=None, lo=0.5, hi=100.0, back=0.0):
    """Seeded random flow network, acyclic unless ``back`` > 0.  A draw with
    no edge raises EmptySelection, and the next spec is drawn instead."""
    from flowallometry import EmptySelection, random_flow

    while True:
        size = int(rng.integers(3, 31)) if n is None else n
        p = float(rng.uniform(0.1, 0.9)) if density is None else density
        seed = int(rng.integers(0, 2**32))
        try:
            return random_flow(size, density=p, weight=(lo, hi),
                               back_density=back, seed=seed)
        except EmptySelection:
            pass
