"""End-to-end and per-layer performance ledger (see README.md here).

One command — ``python3 benchmarks/e2e/run.py`` — generates seeded
inputs, runs the serial, messaging, prefetch and service paths, checks
every corrected read against an oracle and prints each metric declared
in :mod:`benchmarks.e2e.metrics` (mirrored in the root ``BENCHMARK.json``)
by name with its unit.  Nothing under ``src/`` is touched: layers are
measured from outside, by timing calls into their public functions and
by subclassing the public ``Engine`` / ``SpectrumView`` seams.
"""
