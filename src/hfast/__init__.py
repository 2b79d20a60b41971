"""hfast — reproduction of "Analyzing Ultra-Scale Application Communication
Requirements for a Reconfigurable Hybrid Interconnect" (SC 2005).

Pipeline: synthetic trace generation (IPM-style per-rank MPI call records)
-> repro-cache -> communication-matrix reduction -> topology-degree analysis
-> hybrid (circuit + packet) interconnect evaluation.

The :mod:`hfast.obs` package provides the observability substrate: span
tracing, a metrics registry, profiling hooks, run manifests, and the
IPM-style run report.
"""

__version__ = "0.2.0"
