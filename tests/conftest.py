import os

from hypothesis import HealthCheck, settings

import acceptance_log

# On CI every Python version draws the same examples.  These are the
# settings of the ``ci`` profile that recent Hypothesis releases register
# and load by themselves; registering them here keeps them, derandomize
# above all, on releases without that profile.
settings.register_profile("ci", derandomize=True, database=None,
                          deadline=None, print_blob=True,
                          suppress_health_check=[HealthCheck.too_slow])
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter):
    if acceptance_log.lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.lines:
            terminalreporter.write_line(line)
