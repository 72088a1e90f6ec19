"""The acceptance battery under the explicit midpoint scheme.

Every criterion of tests/test_acceptance.py is collected again here, with the
same thresholds; only the `time_scheme` fixture differs.
"""

import pytest

from test_acceptance import *  # noqa: F401,F403 - the criteria and their fixtures


@pytest.fixture(scope="module")
def time_scheme():
    return "explicit"
