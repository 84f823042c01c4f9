"""Hoiho-ASN: learning regexes that extract ASNs from hostnames.

This package is the paper's primary contribution (sections 3 and 4):

* :mod:`repro.core.types` -- training items and per-suffix datasets;
* :mod:`repro.core.congruence` -- apparent ASNs, the guarded
  edit-distance-one rule, the embedded-IP false-positive rule, and the
  TP/FP/FN/ATP bookkeeping of section 3.1;
* :mod:`repro.core.regex_model` -- a structured regex AST that renders to
  the anchored patterns the paper shows;
* :mod:`repro.core.phase1` .. :mod:`repro.core.phase4` -- the four
  learning phases (base regexes, merging, character classes, regex sets);
* :mod:`repro.core.select` -- best-convention selection (section 3.6) and
  the good/promising/poor classification (section 4);
* :mod:`repro.core.taxonomy` -- the Table-1 placement taxonomy;
* :mod:`repro.core.matchcache` -- the per-dataset match-vector
  evaluation cache every phase scores through;
* :mod:`repro.core.parallel` -- the per-suffix / per-training-set
  fan-out policy;
* :mod:`repro.core.resilience` -- retry policy, transient-vs-poison
  fault classification, and deterministic fault injection for those
  fan-outs;
* :mod:`repro.core.hoiho` -- the end-to-end learner.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.types": ("TrainingItem", "SuffixDataset", "group_by_suffix"),
    "repro.core.asname": (
        "NameConvention", "NameHoiho", "NameLearnerConfig",
        "learn_name_suffix",
    ),
    "repro.core.routername": (
        "RouterItem", "RouterNameConvention", "learn_router_names",
        "learn_router_suffix",
    ),
    "repro.core.io": (
        "conventions_from_json", "conventions_to_json", "training_from_jsonl",
        "training_to_jsonl",
    ),
    "repro.core.report": ("render_convention", "render_result"),
    "repro.core.congruence": (
        "Outcome", "apparent_asn_runs", "classify_extraction", "congruent",
    ),
    "repro.core.regex_model": (
        "Alt", "Any_", "Cap", "ClassSeq", "Exclude", "Lit", "Regex",
    ),
    "repro.core.evaluate": ("NCScore", "evaluate_nc"),
    "repro.core.matchcache": (
        "CacheStats", "ComposedNC", "MatchCache", "MatchVector",
    ),
    "repro.core.parallel": ("ParallelConfig", "parallel_map", "stream_map"),
    "repro.core.resilience": (
        "FaultInjector", "PoisonItemError", "ResilienceStats", "RetryPolicy",
        "TransientError",
    ),
    "repro.core.select": (
        "NCClass", "LearnedConvention", "HoihoResult", "select_best",
        "classify_nc",
    ),
    "repro.core.taxonomy": ("Taxonomy", "taxonomy_of"),
    "repro.core.hoiho": (
        "Hoiho", "HoihoConfig", "LearnTrace", "learn_suffix",
        "learn_suffix_traced",
    ),
})
