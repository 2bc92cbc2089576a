"""Step IV: distributed error correction, the classic one-shot entry.

:func:`correct_distributed` seals prebuilt spectra into a
:class:`~repro.parallel.session.CorrectionSession`
(:meth:`~repro.parallel.session.CorrectionSession.from_spectra`) and runs
one correction round, so the one-shot path and the long-lived session
path execute literally the same code: the rank's compiled lookup tier
stack (:func:`repro.parallel.lookup.compile_stacks` — owned shard,
allgather replica, replication group, reads table, message to the owning
rank; see ``docs/RUNTIME.md``) is the spectrum view of the same
:class:`~repro.core.corrector.ReptileCorrector` used serially, so the
distributed result is bit-identical to the serial reference on the same
spectra.
"""

from __future__ import annotations

from repro.config import ReptileConfig
from repro.core.corrector import CorrectionResult
from repro.io.records import ReadBlock
from repro.parallel.build import RankSpectra
from repro.parallel.heuristics import HeuristicConfig
from repro.simmpi.communicator import Communicator
from repro.util.timer import PhaseTimer


def correct_distributed(
    comm: Communicator,
    block: ReadBlock,
    config: ReptileConfig,
    heuristics: HeuristicConfig,
    spectra: RankSpectra,
    timer: PhaseTimer | None = None,
) -> CorrectionResult:
    """Correct one rank's reads against the distributed spectra.

    Collective: all ranks must call it (the protocol's DONE/SHUTDOWN
    handshake ends the phase globally).  Returns this rank's corrected
    block and counters.

    The paper's per-rank communication thread is the protocol's pump:
    the rank serves peers' requests at its communication points, which
    runs on every engine, the deterministic one included.

    When a :class:`~repro.faults.FaultPlan` is armed on the communicator,
    the phase becomes survivable: doomed ranks replicate their spectrum
    shard and read partition to a partner first, lookups run the
    sequence-numbered retry protocol, and each partner re-owns and
    replays its dead ward's reads before the DONE/SHUTDOWN handshake —
    so the run's corrected output stays bit-identical to the fault-free
    reference.
    """
    from repro.parallel.session import CorrectionSession

    timer = timer or PhaseTimer()
    session = CorrectionSession.from_spectra(
        comm, config, heuristics, spectra, timer=timer
    )
    return session.correct(block, timer=timer)
