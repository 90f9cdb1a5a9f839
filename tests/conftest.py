"""Shared test configuration: hypothesis profiles and the asyncio log guard.

The ``ci`` profile (selected via ``HYPOTHESIS_PROFILE=ci``, as the GitHub
workflow does) disables the per-example deadline: shared CI runners have
noisy wall-clocks and a deadline flake tells us nothing about correctness.
Local runs keep hypothesis defaults.

Every test fails if asyncio logged an error while it ran: "Task exception
was never retrieved" or "Unhandled exception in client_connected_cb" is how
an exception escapes a gateway task, and the client side would see only a
timeout or a dropped connection.
"""

import logging
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_profile = os.environ.get("HYPOTHESIS_PROFILE")
if _profile:
    settings.load_profile(_profile)


class _ErrorRecords(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def _no_asyncio_error_log():
    handler = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "asyncio logged errors:\n"
            + "\n".join(handler.format(record) for record in handler.records),
            pytrace=False,
        )
