"""Non-firing fixture for RA203: serve-daemon code that stays on the
transport/caching side of the line -- stores, the daemon's execution
primitive, the facade's config type.  Must report nothing."""

from repro.api.config import EngineConfig
from repro.cache import BDDStore
from repro.runner.store import RunStore
from repro.serve.state import execute_payload_async


async def handle_check(payload, state_dir):
    EngineConfig.from_dict(dict(payload.get("config") or {}))
    RunStore(state_dir)
    BDDStore.shared(state_dir)
    return await execute_payload_async(payload)
