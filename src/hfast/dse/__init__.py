"""Design-space exploration over the temporal interconnect evaluator.

The subsystem treats the interconnect configuration knobs (circuits per
node, reconfiguration cost, traffic-slice granularity)
as search variables and the temporal evaluator as a fitness function:

- :mod:`hfast.dse.space` — declarative, validated parameter space with
  deterministic grid enumeration and seeded sampling.
- :mod:`hfast.dse.pareto` — sense-aware dominance filtering and frontier
  utilities.
- :mod:`hfast.dse.search` — grid and evolutionary strategies; every
  candidate evaluation is dispatched as a pipeline cell through the
  existing serial / work-stealing backends, so searches retry, journal,
  and resume exactly like analysis sweeps.

The repo throughline holds here too: the frontier artifact is a function
of (workload, space, seed, strategy) alone — same inputs on any
scheduler backend serialize byte-identically.
"""
