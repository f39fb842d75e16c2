"""End-to-end and per-layer benchmark of the SherLock reproduction.

``python3 perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
