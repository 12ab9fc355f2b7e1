"""Fixtures for the serve-daemon tests: a real daemon on a real socket.

Every test gets its own daemon on a free port with a fresh state
directory -- the warm-state tests are exactly about what persists
*within* one daemon's life, so nothing may leak between tests.
"""

import asyncio
import threading

import pytest

from repro.serve import ServeApp, ServeClient


class ThreadedServeApp(ServeApp):
    """A daemon whose event loop runs on a background thread."""

    _thread = None

    def run_in_thread(self) -> "ThreadedServeApp":
        """Start the daemon on a daemon thread; returns once it listens."""
        ready = threading.Event()

        def runner() -> None:
            asyncio.run(self._thread_main(ready))

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("serve daemon failed to start")
        return self

    async def _thread_main(self, ready: threading.Event) -> None:
        await self.start()
        ready.set()
        await self.serve_until_shutdown()

    def stop(self, timeout: float) -> None:
        """Gracefully stop the daemon and join its thread."""
        if self._thread is None:
            return
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.request_shutdown)
            except RuntimeError:
                pass  # loop already finished: nothing left to stop
        self._thread.join(timeout=timeout)
        self._thread = None


@pytest.fixture
def make_daemon(tmp_path):
    """Factory for daemons with custom knobs; all stopped on teardown."""
    apps = []

    def factory(**kwargs) -> ThreadedServeApp:
        kwargs.setdefault("state_dir",
                          str(tmp_path / f"state-{len(apps)}"))
        kwargs.setdefault("jobs", 2)
        app = ThreadedServeApp(**kwargs)
        apps.append(app)
        return app.run_in_thread()

    yield factory
    for app in apps:
        app.stop(timeout=30)


@pytest.fixture
def daemon(make_daemon):
    """One default daemon (2 workers, fresh state dir)."""
    return make_daemon()


@pytest.fixture
def client(daemon):
    return ServeClient(port=daemon.port)
