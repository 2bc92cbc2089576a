"""Static load balancing: redistribute reads by content hash (Section III-A).

"a sequence is designated to be owned by a rank p if
hashFunction(seq) % np == p ... The sequences are then placed in separate
buckets corresponding to the owning ranks.  Subsequently, a collective
communication MPI_Alltoallv is performed; each rank then processes the
sequences for which they are the owning rank.  This hashing of sequences
has the same effect as the 'randomization' of the file might have."

Because error bursts are contiguous *in the file*, hashing breaks them up:
every rank ends up with a statistically identical mix of clean and
erroneous reads, which is what flattens the Fig. 4/6/7 imbalance.
"""

from __future__ import annotations

import numpy as np

from repro.io.records import ReadBlock
from repro.parallel.ownership import sequence_owner
from repro.simmpi.communicator import Communicator


def redistribute_reads(
    comm: Communicator, block: ReadBlock, parts: int | None = None, first: int = 0
) -> ReadBlock:
    """Exchange reads so each rank holds exactly the reads it owns.

    Collective.  Read order within a rank follows source-rank order, which
    is deterministic; sequence numbers travel with the reads, so output
    files can be re-sorted afterwards.

    By default every rank owns reads (``hash % np``).  A caller whose
    block is too small to be worth cutting ``np`` ways names the window
    of owners instead: the ``parts`` ranks starting at ``first``
    (wrapping), with ``hash % parts`` choosing among them.  On one rank
    the block comes back as it is: there is nowhere to move a read.
    """
    if comm.size == 1:
        return block
    if parts is None:
        parts = comm.size
    owners = (sequence_owner(block, parts) + first) % comm.size
    order = np.argsort(owners, kind="stable")
    boundaries = np.searchsorted(owners[order], np.arange(comm.size + 1))
    chunks = []
    for d in range(comm.size):
        rows = order[boundaries[d] : boundaries[d + 1]]
        chunks.append(block.select(rows).to_wire())
    received = [ReadBlock.from_wire(p) for p in comm.alltoallv(chunks)]
    # Track the exchanged volume for the performance model.
    moved = sum(len(b) for s, b in enumerate(received) if s != comm.rank)
    comm.stats.bump("reads_received_in_balance", moved)
    merged = ReadBlock.concat(received)
    return merged if len(merged) else ReadBlock.empty(block.max_length)
