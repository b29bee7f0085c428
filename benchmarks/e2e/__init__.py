"""End-to-end benchmark of the estimator service.

One command boots a one-worker :class:`repro.serving.Supervisor` pool,
drives it over HTTP from one client process, checks every answer, and
prints the end-to-end metrics; ``--trace`` adds the per-layer ledger.
See ``benchmarks/e2e/README.md``.
"""
