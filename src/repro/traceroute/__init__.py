"""Traceroute simulation over the synthetic Internet.

* :mod:`repro.traceroute.routing` computes AS-level forwarding under the
  standard Gao-Rexford policy model (prefer customer routes over peer
  routes over provider routes, then shortest AS path, with valley-free
  export rules);
* :mod:`repro.traceroute.probe` expands AS paths to router-level hop
  sequences, reporting the *ingress* interface of every router -- which
  is how supplier-addressed interconnects end up attributed to the wrong
  AS by naive IP-to-AS mapping -- and holds a campaign's traces as flat
  columns (:class:`~repro.traceroute.probe.TraceSet`);
* :mod:`repro.traceroute.campaign` runs measurement campaigns from
  configurable vantage points, producing the trace sets ITDK snapshots
  are built from, or only the addresses those traces observe.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.traceroute.routing": ("RoutingModel",),
    "repro.traceroute.probe": ("Prober", "Trace", "TraceSet"),
    "repro.traceroute.campaign": (
        "CampaignConfig", "observe_campaign", "run_campaign",
    ),
})
