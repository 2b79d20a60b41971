"""Fault-tolerant work-stealing scheduler for the (app, scale) cell matrix.

The subsystem replaces static cell partitioning with a cost-model-driven
shared queue: idle workers steal the largest remaining cell, transient
failures retry with exponential backoff, crashed or hung workers are
detected (liveness + heartbeats) and their cells re-dispatched, and a
run-state journal makes long campaigns resumable with ``--resume``.

Modules:

- :mod:`hfast.sched.cost` — per-cell cost estimates from the synthesizer
  record-count formulas, calibrated against prior ``BENCH_*.json`` runs.
- :mod:`hfast.sched.faults` — the fault-injection harness used by the
  chaos tests and CI (crash / hang / flaky / slow, per cell, per attempt).
- :mod:`hfast.sched.journal` — append-only JSONL run journal; completed
  cells replay from it on resume, byte-identical to a live run.
- :mod:`hfast.sched.scheduler` — the work-stealing executor itself.
"""
