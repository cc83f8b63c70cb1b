"""Session set-up shared by every test directory."""

import warnings

import pytest
from hypothesis import strategies as st
from hypothesis.errors import NonInteractiveExampleWarning


@pytest.hookimpl(trylast=True)
def pytest_sessionstart(session):
    """Build hypothesis's unicode tables before any test draws text.

    The first ``st.text`` draw of a process builds them (1.5-2.5 s, then
    cached under ``.hypothesis/``), and that cost would land inside
    whichever test draws text first and fail its ``too_slow`` health
    check on a fresh checkout.  ``trylast``: after hypothesis's own
    plugin has left its initialization phase.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonInteractiveExampleWarning)
        st.text().example()
