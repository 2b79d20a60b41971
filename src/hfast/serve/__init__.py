"""Analysis-as-a-service: the ``hfast serve`` HTTP daemon.

Public surface:

- :meth:`hfast.spec.RunSpec.from_wire` — analysis job validation and
  content addressing (one cell of a run spec);
  :func:`hfast.serve.jobspec.canonicalize_sweep` /
  :class:`~hfast.serve.jobspec.SweepSpec` — the same for sweep jobs.
- :class:`hfast.serve.store.ResultStore` / :class:`hfast.serve.store.JobLedger`
  — durable result artifacts and job lifecycle records.
- :class:`hfast.serve.daemon.AnalysisService` — the asyncio HTTP service.
- :class:`hfast.serve.daemon.ServiceThread` — in-process embedding for
  tests and smoke scripts.
- :func:`hfast.serve.daemon.run_serve` — the CLI entry point.
"""
