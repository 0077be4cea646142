"""The serial streaming replay every interval replay is held to.

Written out by hand from the engine's public API, so it shares nothing
with ``DistributedSSTD.run_intervals`` but :class:`StreamingSSTD`: on
each point ``g`` of the trace's batch grid, push every report with
``timestamp <= g``, then tick at ``g``.
"""

from repro.core.sstd import SSTDConfig, StreamingSSTD
from repro.system.sstd_system import STREAMING_RETRAIN_EVERY


def serial_stream_replay(reports, start, end, config=None, refit=None):
    """Estimates of the serial replay of time-sorted ``reports`` over
    the grid of ``[start, end]``, sorted by claim, then time."""
    config = config or SSTDConfig()
    engine = StreamingSSTD(config, STREAMING_RETRAIN_EVERY, refit=refit)
    estimates = []
    cursor = 0
    for now in config.acs.grid(start, end).tolist():
        while cursor < len(reports) and reports[cursor].timestamp <= now:
            engine.push(reports[cursor])
            cursor += 1
        estimates.extend(engine.tick(now))
    return sorted(estimates, key=lambda e: (e.claim_id, e.timestamp))
