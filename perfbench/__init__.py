"""Benchmark of the extparab package; see run.py and NOTES.md."""
