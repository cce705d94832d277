"""SpotServe reproduction benchmark: workloads, traced layers and the driver.

Run it from the repository root with ``python3 benchmarks/spotbench/run.py``;
see ``README.md`` in this directory.  Importing this package imports nothing
from :mod:`repro`, so a pass can time that import itself.
"""
