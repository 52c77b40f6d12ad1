"""Support code for the repository benchmark (``perfbench/run.py``).

Nothing in the program under test imports this package; it only calls
into the program. ``tracer`` and ``measure`` use the standard library
alone, so their arithmetic is testable without the program.
"""
