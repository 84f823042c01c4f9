"""Reproduction of "Learning to Extract and Use ASNs in Hostnames".

Public API tour:

* learn conventions: :class:`repro.core.Hoiho`,
  :func:`repro.core.learn_suffix`, :class:`repro.core.TrainingItem`;
* synthetic measurement: :func:`repro.topology.generate_world`,
  :func:`repro.naming.assign_hostnames`,
  :func:`repro.pipeline.run_snapshot`;
* router ownership: :mod:`repro.rtaa`, :mod:`repro.bdrmapit`
  (including the paper's hostname-hint modification in
  :mod:`repro.bdrmapit.hints`);
* experiments: :mod:`repro.eval` regenerates every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core": (
        "Hoiho", "HoihoConfig", "HoihoResult", "LearnedConvention", "NCClass",
        "TrainingItem", "learn_suffix",
    ),
    "repro.pipeline": (
        "METHOD_BDRMAPIT", "METHOD_RTAA", "SnapshotResult", "SnapshotSpec",
        "run_peeringdb_snapshot", "run_snapshot",
    ),
    "repro.store": ("ArtifactStore",),
    "repro.topology": ("World", "WorldConfig", "generate_world"),
})
__all__.append("__version__")
