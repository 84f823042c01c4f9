"""RouterToAsAssignment: the 2010-2017 ITDK annotation baseline."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.rtaa.rtaa": ("assign_asns",),
})
