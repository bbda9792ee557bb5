"""Fixtures shared across test packages."""

import pytest


@pytest.fixture
def served():
    """Services behind the asyncio edge, drained and stopped at teardown.

    Yields ``make(**overrides) -> (service, url)``.  The overrides build
    the :class:`~repro.service.ServiceConfig` on top of a 2-worker
    default, except ``max_pending``, which goes to the edge.
    ``make.handles`` lists the running edges, newest last.
    """
    from repro.service import (
        DeobfuscationService,
        ServiceConfig,
        start_async_server,
    )

    handles = []

    def make(**overrides):
        max_pending = overrides.pop("max_pending", None)
        config = dict(jobs=2, timeout=10.0, kill_grace=0.3, queue_limit=64)
        config.update(overrides)
        service = DeobfuscationService(ServiceConfig(**config))
        handle = start_async_server(service, max_pending=max_pending)
        handles.append(handle)
        host, port = handle.server_address
        return service, f"http://{host}:{port}"

    make.handles = handles
    yield make
    for handle in handles:
        handle.shutdown(drain=True)
