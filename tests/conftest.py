import pytest

from ksalgebra.exactfield import cyclic_cubic_field
from ksalgebra.pipeline import KSReport, ks_report, search_cubic_diagonal


@pytest.fixture(scope="session")
def cubic_report() -> KSReport:
    """The cyclic cubic instance: the slowest report, built once per session."""
    f = cyclic_cubic_field()
    return ks_report(f, search_cubic_diagonal(f))
