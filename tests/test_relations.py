"""Relations the answers must keep, whatever the recorded goldens hold.

Each test runs a scenario and a changed copy that must give the same
answers, so it pins every input it runs on with no recorded output
(a metamorphic relation).  A relation that stops holding is a finding to
report with its seed and the first metric that moved, not a test to loosen.
"""

import dataclasses
import random

import pytest

from uwansim.mac import PROTOCOLS
from uwansim.scenario import scenario_from_dict
from uwansim.sim import Simulator


def _run(scenario):
    sim = Simulator(scenario)
    result = sim.run()
    return result.metrics, result.engine_stats, sim.links.reach


def _default(protocol, seed):
    """The default 20-node scenario over 1000 s, resolved."""
    return scenario_from_dict({"seed": seed, "duration_s": 1000, "mac": {"protocol": protocol}}).resolved()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_nodes_on_no_route_change_no_answer(protocol, seed):
    # five random nodes appended to the default placement, and the corner of
    # the region farthest from node 0, send nothing and are sent nothing.  A
    # point of the region is farthest from node 0 at a corner, so the corner
    # lengthens node 0's reach, and the run trims its transmission log at
    # other times
    base = _default(protocol, seed)
    net, rng = base.network, random.Random(seed)
    idle = [(rng.uniform(0.0, net.node_depth_max), rng.uniform(0.0, net.region_size),
             rng.uniform(0.0, net.region_size)) for _ in range(5)]
    idle.append(tuple(0.0 if 2 * x > high else high for x, high in
                      zip(net.nodes[0], (net.node_depth_max, net.region_size, net.region_size))))
    grown = dataclasses.replace(base, network=dataclasses.replace(net, nodes=[*net.nodes, *idle])).resolved()
    assert grown.network.routes == net.routes
    metrics, stats, reach = _run(base)
    grown_metrics, grown_stats, grown_reach = _run(grown)
    assert grown_reach[0] > reach[0]
    assert metrics.delivered > 0
    assert (grown_metrics, grown_stats) == (metrics, stats)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabeled_nodes_change_no_trmac_answer(seed):
    # the nodes of the default placement in a random order, each route
    # naming its nodes by their new indices.  Under the CSMA variants a
    # relabeling reseeds the backoff streams, which are keyed by node index
    base = _default("trmac", seed)
    net = base.network
    new = list(range(len(net.nodes)))  # node i becomes node new[i]
    random.Random(seed).shuffle(new)
    nodes = [None] * len(new)
    for i, position in zip(new, net.nodes):
        nodes[i] = position
    routes = [tuple(new[v] for v in route) for route in net.routes]
    relabeled = dataclasses.replace(base, network=dataclasses.replace(net, nodes=nodes, routes=routes)).resolved()
    assert relabeled.network.routes == routes and relabeled.network.nodes != net.nodes
    metrics, stats, _ = _run(base)
    assert metrics.delivered > 0
    assert _run(relabeled)[:2] == (metrics, stats)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_table_a_trmac_run_filled_changes_no_csma_answer(seed):
    # a TRMAC run fills the TR quantities and step-4 checks of its table,
    # which a CSMA run never reads
    trmac = Simulator(_default("trmac", seed))
    trmac.run()
    assert any(map(any, trmac.links.tr))
    for protocol in ("csma_ca", "s_csma_ca"):
        scenario = _default(protocol, seed)
        handed = Simulator(scenario, links=trmac.links).run()
        assert (handed.metrics, handed.engine_stats) == _run(scenario)[:2], protocol
