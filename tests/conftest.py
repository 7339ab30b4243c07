"""Test-session settings.

Property tests draw fresh examples on every run, so a failure must
print hypothesis's ``@reproduce_failure`` blob to be replayed and kept
as a named case.  The profile changes nothing else: example budgets,
deadlines and strategies stay as each test sets them.
"""

try:
    from hypothesis import settings
except ImportError:  # the property suites skip themselves without it
    pass
else:
    settings.register_profile("bowforge", print_blob=True)
    settings.load_profile("bowforge")
