"""Test helper: post one :class:`~repro.net.frames.Record` per call.

The queues take batches only (``post_many``); one call per record, in
order, is the reference a batch must equal — same flush boundaries,
received order, words and buffer high-water marks.
"""

import numpy as np

from repro.net import RecordFrame


def post_record(queue, dest, record):
    """Post ``record`` to ``dest`` as a single-record ``post_many`` call."""
    frame = RecordFrame.from_records([record])
    queue.post_many(
        np.array([dest], dtype=np.int64),
        frame.vertices,
        frame.targets,
        np.zeros(1, dtype=np.int64),
        frame.xadj,
        frame.neighbors,
    )
