"""A from-scratch message-passing runtime with MPI semantics.

The paper's algorithm is written against MPI: tagged point-to-point
send/recv, ``MPI_Iprobe``, ``MPI_Alltoallv``, ``MPI_Allgatherv``,
``MPI_Reduce`` and barriers.  mpi4py is not available in this environment,
so this package implements those semantics in three layers:

* **codec** (:mod:`repro.simmpi.wire`) — every payload is encoded into a
  typed binary frame at the communicator's send boundary, so delivery is
  a deep copy on every engine and byte accounting is exact;
* **transport** (:mod:`repro.simmpi.transport`) — how encoded frames
  move: shared-memory deques for the in-memory engines, multiprocessing
  queues for the process engine;
* **engines** (:mod:`repro.simmpi.engine`) — how ranks are scheduled:

  - :class:`~repro.simmpi.engine.CooperativeEngine` — ranks take
    deterministic turns, switching only at communication points.  Runs
    are exactly reproducible (used by tests and by the instrumented runs
    that feed the performance model).
  - :class:`~repro.simmpi.engine.ThreadedEngine` — ranks run as free
    concurrent threads (used to exercise the Step IV protocol under
    real concurrency).
  - :class:`~repro.simmpi.engine.ProcessEngine` — one spawned
    interpreter per rank, shared-nothing state, frames over pipes: the
    closest analogue of the paper's MPI deployment, and the only engine
    that scales past the GIL.

The communicator/collectives API is identical on every engine, and a
group from ``comm.split`` is a communicator with that same API.  Each
rank's traffic is counted by :class:`~repro.simmpi.instrument.CommStats`
as exact encoded frame lengths, which the performance model consumes.
"""

from repro.simmpi import wire
from repro.simmpi.message import Message, ANY_SOURCE, ANY_TAG, Tags
from repro.simmpi.instrument import CommStats
from repro.simmpi.communicator import Communicator
from repro.simmpi.transport import LocalTransport, ProcessTransport, Transport
from repro.simmpi.engine import (
    CooperativeEngine,
    ProcessEngine,
    ThreadedEngine,
    run_spmd,
)

__all__ = [
    "Message",
    "ANY_SOURCE",
    "ANY_TAG",
    "Tags",
    "CommStats",
    "Communicator",
    "CooperativeEngine",
    "ProcessEngine",
    "ThreadedEngine",
    "run_spmd",
    "Transport",
    "LocalTransport",
    "ProcessTransport",
    "wire",
]
