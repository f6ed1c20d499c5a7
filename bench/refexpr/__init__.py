"""Frozen copy of invdel's expression kernel, used only as a timing probe.

``expr.py`` and ``errors.py`` are verbatim copies of ``src/invdel/expr.py``
and ``src/invdel/errors.py`` as they were when the benchmark was defined.
``run.py`` times a fixed expression workload on this copy between ops, to
track how fast the machine runs this kind of code at that moment.  Keep the
copy unchanged when the library changes: the probe must stay the same
work, or the reference speed moves with it.
"""
