"""Test helper: post one record per call.

The queues take batches only (``post_many``); one call per record, in
order, is the reference a batch must equal — same flush boundaries,
received order, words and buffer high-water marks.
"""

import numpy as np


def post_record(queue, dest, vertex, block, target=-1):
    """Post the record ``(vertex, target, block)`` to ``dest`` as a
    single-record ``post_many`` call (``target=-1`` for broadcast)."""
    block = np.asarray(block, dtype=np.int64)
    queue.post_many(
        np.array([dest], dtype=np.int64),
        np.array([vertex], dtype=np.int64),
        np.array([target], dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.array([0, block.size], dtype=np.int64),
        block,
    )
