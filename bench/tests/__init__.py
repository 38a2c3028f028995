"""Self-tests for the instrument: the benchmark's own arithmetic,
generators and load drivers, not the program it measures.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``; tier-1's
``testpaths`` does not include this directory.
"""
