"""bdrmapIT-style router ownership inference, plus the paper's extension.

* :mod:`repro.bdrmapit.graph` builds per-node topological state from
  traceroutes: interface origins, *subsequent* ASN sets (origins of the
  next interfaces observed after the node) and *destination* ASN sets;
* :mod:`repro.bdrmapit.algorithm` runs the iterative annotation loop
  (election plus relationship heuristics, with the /30 link-mate rule and
  IXP resolution);
* :mod:`repro.bdrmapit.hints` implements the paper's section-5
  modification: evaluating ASNs extracted from hostnames against the
  node's topological constraints to decide whether a hostname is stale
  or the initial inference was wrong;
* :mod:`repro.bdrmapit.metrics` computes the agreement/error-rate
  numbers the paper reports.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bdrmapit.graph": ("NodeState", "RouterGraph", "build_router_graph"),
    "repro.bdrmapit.algorithm": ("AnnotationConfig", "annotate"),
    "repro.bdrmapit.hints": (
        "ExtractionHint", "HintDecision", "HintsOutcome", "apply_hints",
        "hints_from_conventions",
    ),
    "repro.bdrmapit.metrics": ("agreement_metrics", "accuracy_against_truth"),
})
