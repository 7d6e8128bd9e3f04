"""Test instruments: helpers only the test suite (and CI's checks) use.

None of this ships in ``repro``: the package holds only code an entry
point runs (``tests/test_reachability.py`` keeps it that way).
"""
