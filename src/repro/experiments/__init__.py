"""Experiment harnesses: one module per table/figure of the paper.

Each harness regenerates its figure's rows/series from scratch --
workload generation, parameter sweep, baselines, statistics -- and
returns a result object with a ``table()`` for printing and raw series
for assertions.  The benchmark suite (``benchmarks/``) wraps these in
pytest-benchmark targets; EXPERIMENTS.md records paper-vs-measured.

=============  ====================================================
experiment     what it reproduces
=============  ====================================================
``fig1``       platform comparison: rFaaS vs Lambda/OpenWhisk/Nightcore
``fig2``       Piz Daint utilization (motivation)
``fig8``       hot/warm invocation latency vs RDMA and TCP
``fig9``       cold-start breakdown, bare-metal vs Docker
``fig10``      parallel scalability, 1-32 workers
``fig11``      SeBS thumbnailer + ResNet inference vs Lambda
``fig12``      Black-Scholes: OpenMP vs rFaaS vs hybrid
``fig13``      MPI GEMM + Jacobi acceleration
``table1``     the requirements matrix, checked programmatically
``billing``    the Sec. IV-C cost model (ablation)
``leases``     leases vs centralized scheduling (ablation)
=============  ====================================================

Import ``EXPERIMENTS`` and ``run_experiment`` from
:mod:`repro.experiments.registry`.  This package imports nothing
itself, so importing one harness does not load every other.
"""
