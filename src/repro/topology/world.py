"""The assembled synthetic Internet.

:func:`generate_world` is a pure function of a seed and a
:class:`WorldConfig`; it chains AS-graph generation, address planning, and
router-level construction.  Hostnames are *not* assigned here -- the
naming layer (:mod:`repro.naming`) decorates a world afterwards, so one
structural world can be re-labelled under different conventions (the
timeline experiments rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.topology.addressing import AddressPlan, build_address_plan
from repro.topology.asgraph import (
    ASGraph,
    ASGraphConfig,
    ASNode,
    generate_asgraph,
)
from repro.topology.routers import (
    Interface,
    Router,
    RouterLevelTopology,
    build_router_topology,
)


@dataclass
class WorldConfig:
    """Top-level knobs for world generation."""

    asgraph: ASGraphConfig = field(default_factory=ASGraphConfig)

    @classmethod
    def tiny(cls) -> "WorldConfig":
        """A few dozen ASes; for unit tests."""
        return cls(asgraph=ASGraphConfig(
            n_clique=3, n_transit=6, n_access=10, n_stub=16, n_content=3,
            n_ixps=2))

    @classmethod
    def small(cls) -> "WorldConfig":
        """A couple hundred ASes; for integration tests and quick runs."""
        return cls(asgraph=ASGraphConfig(
            n_clique=4, n_transit=18, n_access=50, n_stub=80, n_content=8,
            n_ixps=8))

    @classmethod
    def default(cls) -> "WorldConfig":
        """The benchmark-scale world."""
        return cls()


@dataclass
class World:
    """Everything the measurement pipeline observes, plus ground truth."""

    seed: int
    graph: ASGraph
    plan: AddressPlan
    topology: RouterLevelTopology

    # -- convenience accessors -------------------------------------------

    def node(self, asn: int) -> ASNode:
        """AS metadata for ``asn``."""
        return self.graph.node(asn)

    def routers(self) -> List[Router]:
        """Every router."""
        return self.topology.routers

    def interfaces(self) -> List[Interface]:
        """Every interface."""
        return self.topology.router_interfaces()

    def true_owner(self, address: int) -> Optional[int]:
        """Ground truth: ASN operating the router holding ``address``."""
        iface = self.topology.interfaces_by_address.get(address)
        return iface.router.asn if iface is not None else None

    def origin(self, address: int) -> int:
        """BGP origin of ``address`` (who routes it, not who operates it)."""
        return self.plan.route_table.origin(address)

    def stats(self) -> Dict[str, int]:
        """Size summary, for logging and sanity tests."""
        topo = self.topology
        return {
            "ases": len(self.graph.nodes),
            "ixps": len(self.graph.ixps),
            "routers": len(topo.routers),
            "interfaces": len(topo.interfaces_by_address),
            "links": len(topo.links),
            "interdomain_links": sum(len(v) for v in
                                     topo.interdomain_links.values()),
            "prefixes": len(self.plan.route_table),
        }


def generate_world(seed: int,
                   config: Optional[WorldConfig] = None) -> World:
    """Generate the full structural world for ``seed``."""
    config = config or WorldConfig.default()
    graph = generate_asgraph(seed, config.asgraph)
    plan = build_address_plan(graph)
    topology = build_router_topology(graph, plan, seed)
    return World(seed=seed, graph=graph, plan=plan, topology=topology)
