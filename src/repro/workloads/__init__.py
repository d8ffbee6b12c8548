"""Workload generators and query suites matching the paper's Table II.

* :mod:`~repro.workloads.snb` — LDBC Social Network Benchmark shaped data
  (power-law ``knows`` edge table + ``person`` vertices) and the short-read
  query suite SQ1-SQ7 (Fig. 13),
* :mod:`~repro.workloads.tpcds` — TPC-DS shaped ``store_sales`` /
  ``date_dim`` with the paper's join (Fig. 14),
* :mod:`~repro.workloads.flights` — US DoT flights + planes tables and
  queries Q1-Q7 (Fig. 15), with controlled match counts and both string and
  integer keys,
* :mod:`~repro.workloads.broconn` — Zeek/Bro ``conn`` log shaped data for
  the Fig. 1 threat-detection join,
* :mod:`~repro.workloads.zipf` — bounded power-law sampling shared by the
  generators.

All generators are deterministic given a seed and sized by a scale
parameter, so benchmarks sweep scale factors the way the paper does.
"""
