"""Synthetic Internet topology.

This package stands in for the measured Internet the paper works on.  It
builds, deterministically from a seed:

* an AS-level graph with CAIDA-style relationships, organizations (with
  sibling ASNs), and IXPs (:mod:`repro.topology.asgraph`);
* an address plan -- per-AS prefixes, infrastructure subnets, /31
  interconnects carved from the *supplying* AS's space, IXP peering LANs
  (:mod:`repro.topology.addressing`);
* a router-level topology -- core/edge/border routers per AS, internal
  links, private interconnects and IXP LAN attachments
  (:mod:`repro.topology.routers`);
* the :class:`repro.topology.world.World` container tying it together.

The key real-world property reproduced here, on which the whole paper
rests, is that the AS supplying the address space for an interconnection
names *both* ends of the link under its own domain (figure 1 of the
paper), so a router operated by AS B can only be observed via an address
registered and routed by AS A.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.asgraph": (
        "ASGraph", "ASNode", "IXPSpec", "Tier", "generate_asgraph",
        "ASGraphConfig",
    ),
    "repro.topology.addressing": ("AddressPlan", "build_address_plan"),
    "repro.topology.routers": (
        "Interface", "InterfaceKind", "Link", "LinkKind", "Router",
        "RouterLevelTopology", "build_router_topology",
    ),
    "repro.topology.world": ("World", "WorldConfig", "generate_world"),
})
