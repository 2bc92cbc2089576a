"""Module-phase rules: checks that need only one file's summary.

MPI001 and MPI009 police collective ordering under rank conditionals,
MPI004 the service-loop hazard, MPI006 the wire-codec contract, MPI007
the lookup-tier layering, and MPI012 the session-backend layering (the
service tier and other non-parallel code may touch spectrum state only
through the :class:`~repro.parallel.session.CorrectionSession` verbs).
Each rule is a plain function registered with the framework in
:mod:`repro.analysis.rules`; none of them may mutate the summary it is
given.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Sequence

from repro.analysis.rules import Finding, Rule, register
from repro.analysis.summary import (
    COLLECTIVE_METHODS,
    NON_CODABLE_CALLS,
    SEND_METHODS,
    FunctionSummary,
    ModuleSummary,
    call_arg,
    dotted_name,
    is_comm_name,
    mentions_rank,
    walk_no_nested_functions,
)

#: Receiver attributes that name a spectrum count table (MPI007).  The
#: rule matches ``<expr>.<one of these>.lookup(...)`` — a probe against
#: a raw table — but deliberately not ``shards.lookup``, which is the
#: stack's own serving surface.
SPECTRUM_TABLE_ATTRS = frozenset(
    {"kmers", "tiles", "owned", "owned_kmers", "owned_tiles",
     "reads_kmers", "reads_tiles", "group_kmers", "group_tiles",
     "table", "spectra"}
)

#: Table-probe method names (MPI007).
TABLE_PROBE_METHODS = frozenset({"lookup", "lookup_found"})

#: MPI007 only polices these paths...
_LOOKUP_POLICED_PART = "repro/parallel"
#: ...and exempts the package that is allowed to probe tables.
_LOOKUP_EXEMPT_PART = "repro/parallel/lookup"


def _finding(path: str, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


# ----------------------------------------------------------------------
# MPI001 — rank-divergent collectives
# ----------------------------------------------------------------------
def _collectives_in(stmts: Sequence[ast.stmt],
                    comm_names: set[str]) -> list[ast.Call]:
    out: list[ast.Call] = []
    for stmt in stmts:
        for node in walk_no_nested_functions(stmt):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in COLLECTIVE_METHODS:
                recv = dotted_name(node.func.value)
                if recv is not None and is_comm_name(recv, comm_names):
                    out.append(node)
    return out


def _rank_conditionals(
        fn: FunctionSummary) -> list[tuple[ast.If, list[ast.Call],
                                           list[ast.Call]]]:
    out: list[tuple[ast.If, list[ast.Call], list[ast.Call]]] = []
    for node in walk_no_nested_functions(fn.node):
        if isinstance(node, ast.If) and \
                mentions_rank(node.test, fn.comm_names):
            out.append((
                node,
                _collectives_in(node.body, fn.comm_names),
                _collectives_in(node.orelse, fn.comm_names),
            ))
    return out


def check_rank_divergent_collectives(summary: ModuleSummary) -> list[Finding]:
    findings: list[Finding] = []
    for fn in summary.functions:
        for cond, body_calls, else_calls in _rank_conditionals(fn):
            body_count = Counter(c.func.attr for c in body_calls
                                 if isinstance(c.func, ast.Attribute))
            else_count = Counter(c.func.attr for c in else_calls
                                 if isinstance(c.func, ast.Attribute))
            for method in sorted(set(body_count) | set(else_count)):
                if body_count[method] == else_count[method]:
                    continue
                heavier = body_calls if body_count[method] > \
                    else_count[method] else else_calls
                site = next(c for c in heavier
                            if isinstance(c.func, ast.Attribute) and
                            c.func.attr == method)
                findings.append(_finding(
                    summary.path, site, "MPI001",
                    f"collective '{method}' is reachable on only one side "
                    f"of a rank-conditional branch (line {cond.lineno}); "
                    "every rank must call collectives in the same order",
                ))
    return findings


register(Rule(
    code="MPI001",
    name="rank-divergent-collective",
    severity="error",
    summary="collective reachable on only one side of a rank-conditional",
    doc=(
        "A collective (barrier, allreduce, alltoallv, ...) appears in the "
        "body or else of an `if` that tests `<comm>.rank`, with no "
        "matching call on the other side.  Ranks taking different "
        "branches then disagree on the collective schedule and the "
        "program deadlocks.  Fix by hoisting the collective out of the "
        "conditional or mirroring it on both sides."
    ),
    module_check=check_rank_divergent_collectives,
))


# ----------------------------------------------------------------------
# MPI009 — collective-sequence divergence (same multiset, different order)
# ----------------------------------------------------------------------
def check_collective_sequence(summary: ModuleSummary) -> list[Finding]:
    findings: list[Finding] = []
    for fn in summary.functions:
        for cond, body_calls, else_calls in _rank_conditionals(fn):
            body_seq = [c.func.attr for c in body_calls
                        if isinstance(c.func, ast.Attribute)]
            else_seq = [c.func.attr for c in else_calls
                        if isinstance(c.func, ast.Attribute)]
            if not body_seq or not else_seq or body_seq == else_seq:
                continue
            if Counter(body_seq) != Counter(else_seq):
                continue  # unequal multisets are MPI001's finding
            findings.append(_finding(
                summary.path, body_calls[0], "MPI009",
                f"rank-conditional branches (line {cond.lineno}) call the "
                f"same collectives in different orders "
                f"({' -> '.join(body_seq)} vs {' -> '.join(else_seq)}); "
                "ranks taking different branches deadlock against each "
                "other's collective schedule",
            ))
    return findings


register(Rule(
    code="MPI009",
    name="collective-sequence-divergence",
    severity="error",
    summary="rank branches call the same collectives in different orders",
    doc=(
        "Both sides of a rank-conditional call the same multiset of "
        "collectives — so MPI001 is silent — but in a different order "
        "(e.g. `reduce` then `barrier` on rank 0, `barrier` then "
        "`reduce` elsewhere).  Collectives match by call order per "
        "communicator, so the ranks cross-match different operations "
        "and deadlock.  Reorder one branch or hoist the shared calls "
        "out of the conditional."
    ),
    module_check=check_collective_sequence,
))


# ----------------------------------------------------------------------
# MPI004 — blocking recv in an iprobe service loop
# ----------------------------------------------------------------------
def _recv_uses_probed_envelope(call: ast.Call) -> bool:
    """True for ``recv(p.source, p.tag)``-style calls."""
    source = call_arg(call, 0, "source")
    tag = call_arg(call, 1, "tag")
    if source is None or tag is None:
        return False
    return (
        isinstance(source, ast.Attribute) and source.attr == "source"
        and isinstance(tag, ast.Attribute) and tag.attr == "tag"
    )


def check_recv_in_probe_loop(summary: ModuleSummary) -> list[Finding]:
    findings: list[Finding] = []
    for fn in summary.functions:
        comm_names = fn.comm_names
        for loop in walk_no_nested_functions(fn.node):
            if not isinstance(loop, (ast.While, ast.For)):
                continue
            has_probe = any(
                isinstance(n, ast.Call) and
                isinstance(n.func, ast.Attribute) and
                n.func.attr == "iprobe" and
                is_comm_name(dotted_name(n.func.value) or "", comm_names)
                for n in walk_no_nested_functions(loop)
            )
            if not has_probe:
                continue
            for node in walk_no_nested_functions(loop):
                if not (isinstance(node, ast.Call) and
                        isinstance(node.func, ast.Attribute) and
                        node.func.attr == "recv"):
                    continue
                recv = dotted_name(node.func.value)
                if recv is None or not is_comm_name(recv, comm_names):
                    continue
                if _recv_uses_probed_envelope(node):
                    continue
                findings.append(_finding(
                    summary.path, node, "MPI004",
                    "blocking recv inside an iprobe service loop; receive "
                    "by the probed envelope (msg.source, msg.tag) or the "
                    "loop can block with traffic still unserved",
                ))
    return findings


register(Rule(
    code="MPI004",
    name="recv-in-probe-loop",
    severity="warning",
    summary="blocking recv inside an iprobe service loop",
    doc=(
        "A loop polls with `iprobe` but then receives with a blocking "
        "`recv()` that is not addressed by the probed envelope.  The "
        "recv can match a different message than the probe saw — or "
        "block forever when the probed message was the last one.  "
        "Receive with `comm.recv(probed.source, probed.tag)`."
    ),
    module_check=check_recv_in_probe_loop,
))


# ----------------------------------------------------------------------
# MPI006 — payload has no typed wire encoding
# ----------------------------------------------------------------------
def _non_codable_kind(expr: ast.expr) -> str | None:
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "a dict"
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(expr, ast.GeneratorExp):
        return "a generator"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in NON_CODABLE_CALLS:
        return f"a {expr.func.id}() value"
    return None


def check_non_codable_payload(summary: ModuleSummary) -> list[Finding]:
    """Flag send payload expressions with no typed wire encoding.

    The codec keeps such payloads sendable through its pickle fallback,
    so this is a style-and-portability rule, not a correctness one.
    Only syntactically certain cases are reported (literals,
    comprehensions, and bare ``dict()``/``set()``/``frozenset()``
    constructors) — a name whose runtime type is unknown is never
    guessed at.
    """
    findings: list[Finding] = []
    for fn in summary.functions:
        for op in fn.calls:
            if op.method not in SEND_METHODS:
                continue
            payload = call_arg(op.node, 1, "payload")
            if payload is None:
                continue
            kind = _non_codable_kind(payload)
            if kind is not None:
                findings.append(_finding(
                    summary.path, payload, "MPI006",
                    f"{op.method} payload is {kind}, which has no typed "
                    "wire encoding and travels as a pickle-fallback "
                    "frame; send arrays, scalars, bytes/str, or "
                    "tuples/lists of them instead",
                ))
    return findings


register(Rule(
    code="MPI006",
    name="non-codable-payload",
    severity="warning",
    summary="send payload is not wire-codable (pickle-fallback frame)",
    doc=(
        "A send payload is a dict/set literal, a comprehension, "
        "or a bare `dict()`/`set()`/`frozenset()` call.  The wire codec "
        "has no typed encoding for these and falls back to a pickle "
        "frame — legal and exactly accounted, but a production MPI "
        "port would have to design a real encoding.  Send arrays, "
        "scalars, bytes/str, or tuples/lists of them."
    ),
    module_check=check_non_codable_payload,
))


# ----------------------------------------------------------------------
# MPI007 — direct spectrum-table probe outside the lookup package
# ----------------------------------------------------------------------
def _polices_lookups(path: str) -> bool:
    """MPI007 scope: repro/parallel minus the lookup package."""
    posix = Path(path).as_posix()
    return (
        _LOOKUP_POLICED_PART in posix
        and _LOOKUP_EXEMPT_PART not in posix
    )


def check_direct_spectrum_lookup(summary: ModuleSummary) -> list[Finding]:
    """Flag raw count-table probes outside the lookup package.

    After the tier-stack refactor every count resolution in
    :mod:`repro.parallel` flows through a compiled
    :class:`~repro.parallel.lookup.stack.LookupStack` (or the
    :class:`~repro.parallel.lookup.routing.ShardServer` on the serving
    side).  A ``<table>.lookup(...)`` anywhere else is a layering
    regression: it answers from one table instead of the configured
    resolution order, silently skipping replicas, the reads table,
    caching and the per-tier ledger.  Sites that legitimately answer
    from a table they own (e.g. the Step III exchange serving its
    partial counts) carry ``# noqa: MPI007``.
    """
    if not _polices_lookups(summary.path):
        return []
    findings: list[Finding] = []
    for node in ast.walk(summary.tree):
        if not (isinstance(node, ast.Call) and
                isinstance(node.func, ast.Attribute) and
                node.func.attr in TABLE_PROBE_METHODS):
            continue
        recv = dotted_name(node.func.value)
        if recv is None:
            continue
        last = recv.rsplit(".", 1)[-1]
        if last not in SPECTRUM_TABLE_ATTRS and not last.endswith("_table"):
            continue
        findings.append(_finding(
            summary.path, node, "MPI007",
            f"direct spectrum-table probe '{recv}.{node.func.attr}' "
            "bypasses the compiled lookup tier stack; resolve counts "
            "through repro.parallel.lookup (LookupStack / ShardServer) "
            "or mark a table-serving site with '# noqa: MPI007'",
        ))
    return findings


register(Rule(
    code="MPI007",
    name="direct-spectrum-lookup",
    severity="warning",
    summary="direct spectrum-table lookup bypasses the tier stack",
    doc=(
        "Code in repro.parallel (outside repro.parallel.lookup) probes "
        "a count table directly with `.lookup`/`.lookup_found` instead "
        "of resolving through the compiled lookup tier stack.  Direct "
        "probes skip replicas, the reads table, caching, and the "
        "per-tier ledger.  Serving sites that answer for a table they "
        "own suppress with `# noqa: MPI007`."
    ),
    module_check=check_direct_spectrum_lookup,
))


# ----------------------------------------------------------------------
# MPI012 — spectrum state touched outside the CorrectionSession verbs
# ----------------------------------------------------------------------
#: Spectrum-construction internals only the parallel layer may call
#: (MPI012): the machinery the CorrectionSession verbs are built from.
BACKEND_INTERNAL_CALLS = frozenset(
    {"exchange_deltas", "apply_replication", "fetch_read_table",
     "compile_stacks", "replicate_state"}
)

#: Backend-owned types that outside code must not construct directly.
BACKEND_INTERNAL_TYPES = frozenset({"RankSpectra", "CorrectionProtocol"})

#: Raw per-rank session state only the checkpoint verb may serialize.
BACKEND_INTERNAL_ATTRS = frozenset({"raw_kmers", "raw_tiles"})

#: MPI012 always polices the service tier...
_BACKEND_SERVICE_PART = "repro/service"
#: ...and every other repro package except the layers that *implement*
#: the backend (the parallel runtime, the core pipeline it wraps, and
#: the hashing primitives both are built on).
_BACKEND_EXEMPT_PARTS = ("repro/parallel", "repro/core", "repro/hashing")


def _polices_backend_verbs(path: str) -> bool:
    """MPI012 scope: repro.service, plus repro minus the backend layers."""
    posix = Path(path).as_posix()
    if _BACKEND_SERVICE_PART in posix:
        return True
    return (
        "repro/" in posix
        and not any(part in posix for part in _BACKEND_EXEMPT_PARTS)
    )


def check_backend_verb_bypass(summary: ModuleSummary) -> list[Finding]:
    """Flag spectrum-state access that bypasses the CorrectionSession verbs.

    The service front-end (and everything else above the parallel
    layer) holds exactly one handle on spectrum state: a rank's
    :class:`~repro.parallel.session.CorrectionSession` and its four
    verbs — ``ingest``/``correct``/``finalize``/``checkpoint``.  Calling
    the construction machinery (``exchange_deltas``,
    ``apply_replication``, ...), probing a count table, constructing
    :class:`RankSpectra`/:class:`CorrectionProtocol` directly, or
    reading the raw checkpoint arrays from outside skips the verbs'
    collectives, accounting and recompilation tracking — precisely the
    layering the service refactor exists to enforce.
    """
    if not _polices_backend_verbs(summary.path):
        return []
    findings: list[Finding] = []
    for node in ast.walk(summary.tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name in BACKEND_INTERNAL_CALLS:
                findings.append(_finding(
                    summary.path, node, "MPI012",
                    f"spectrum-construction call '{name}(...)' outside "
                    "the parallel layer; reach spectrum state only "
                    "through the CorrectionSession verbs "
                    "(ingest/correct/finalize/checkpoint)",
                ))
            elif name in BACKEND_INTERNAL_TYPES:
                findings.append(_finding(
                    summary.path, node, "MPI012",
                    f"direct {name}(...) construction outside the "
                    "parallel layer; the backend owns its spectra and "
                    "protocol — hold a CorrectionSession and use its "
                    "verbs",
                ))
            elif name in TABLE_PROBE_METHODS and \
                    isinstance(func, ast.Attribute):
                recv = dotted_name(func.value)
                if recv is None:
                    continue
                last = recv.rsplit(".", 1)[-1]
                if last in SPECTRUM_TABLE_ATTRS or last.endswith("_table"):
                    findings.append(_finding(
                        summary.path, node, "MPI012",
                        f"spectrum-table probe '{recv}.{name}' outside "
                        "the parallel layer; counts are backend state — "
                        "submit reads through CorrectionSession.correct() "
                        "instead of probing tables",
                    ))
        elif isinstance(node, ast.Attribute) and \
                node.attr in BACKEND_INTERNAL_ATTRS:
            findings.append(_finding(
                summary.path, node, "MPI012",
                f"raw session state '.{node.attr}' read outside the "
                "parallel layer; persistence goes through "
                "CorrectionSession.checkpoint(), not the raw arrays",
            ))
    return findings


register(Rule(
    code="MPI012",
    name="backend-verb-bypass",
    severity="error",
    summary="spectrum state touched outside the CorrectionSession verbs",
    doc=(
        "Code in repro.service — or any repro package other than the "
        "backend layers (repro.parallel, repro.core, repro.hashing) — "
        "touches spectrum state directly: it calls the construction "
        "machinery (`exchange_deltas`, `apply_replication`, "
        "`compile_stacks`, ...), probes a count table with "
        "`.lookup`/`.lookup_found`, constructs `RankSpectra` or "
        "`CorrectionProtocol` itself, or reads the raw checkpoint "
        "arrays (`.raw_kmers`/`.raw_tiles`).  The service tier's one "
        "handle on spectrum state is a CorrectionSession and its verbs "
        "(ingest/correct/finalize/checkpoint); anything else skips the "
        "verbs' collectives, accounting and recompile tracking.  A "
        "deliberate exception suppresses with `# noqa: MPI012` and a "
        "justification."
    ),
    module_check=check_backend_verb_bypass,
))


