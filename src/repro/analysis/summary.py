"""Phase-1 extraction: per-module communication summaries.

The whole-program linter runs in two phases.  This module implements
the first: each source file is parsed once and distilled into a
:class:`ModuleSummary` — its constant environment (module- and
class-level integer constants, so ``Tags.KMER_REQUEST`` folds to an
int whenever ``message.py`` is in the lint set), every send / receive /
collective call on a communicator-like receiver with its resolved tag,
and every *tag consumer* (a constant-tag receive, a ``msg.tag ==
Tags.X`` dispatch comparison, or a ``handlers[Tags.X] = fn``
registration).  Phase 2 rules then see either one summary
(``module_check``) or the :class:`Program` holding all of them
(``program_check``), which is what lets a send in one module be
matched against its responder in another.

Communicator detection is name-based: a receiver expression whose final
component is ``comm`` or ends in ``comm`` (``comm``, ``subcomm``,
``self.comm``, ``group_comm``, ...), or a name assigned from a
``.split(...)`` call on such an expression, is treated as a
communicator.  This matches the repository's and the paper's idiom
without needing type inference.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

#: Methods that are collective: every rank of the communicator must call
#: them, in the same order.
COLLECTIVE_METHODS = frozenset(
    {"barrier", "alltoallv", "allgather", "allreduce", "gather", "bcast",
     "reduce", "split"}
)
SEND_METHODS = frozenset({"send"})
#: ``take_queued`` is the non-blocking, non-yielding drain of several
#: tags at once: it removes the messages it returns, so the tag and
#: peer rules treat it as a receive of each tag it names.
RECV_METHODS = frozenset({"recv", "iprobe", "take_queued"})

#: ndarray methods that mutate in place (MPI011).
INPLACE_METHODS = frozenset(
    {"fill", "sort", "put", "partition", "resize", "setfield", "byteswap",
     "itemset", "setflags"}
)

#: Container methods that mutate the receiver in place (MPI011).
CONTAINER_MUTATORS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault", "pop",
     "popitem", "remove", "discard", "clear", "appendleft", "extendleft"}
)

#: Constructor names whose result has no typed wire encoding (MPI006).
NON_CODABLE_CALLS = frozenset({"dict", "set", "frozenset"})

#: Sentinel tag value for ``ANY_TAG`` / ``-1``.
WILDCARD = "<ANY_TAG>"

#: Resolved tag: int constant, symbolic name / WILDCARD, or None when
#: the expression could not be folded.
Tag = int | str | None


# ----------------------------------------------------------------------
# small AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, or None for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_comm_name(dotted: str, extra: set[str]) -> bool:
    last = dotted.rsplit(".", 1)[-1]
    return dotted in extra or last in extra or last.lower().endswith("comm")


def walk_no_nested_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a subtree without descending into nested function bodies."""
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


def call_arg(call: ast.Call, index: int, keyword: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(call.args) > index:
        return call.args[index]
    return None


def resolve_tag(node: ast.expr | None, env: dict[str, int],
                default: Tag) -> Tag:
    """Constant-fold a tag expression.

    Returns an int, a symbolic dotted constant name
    (``Tags.KMER_REQUEST``), :data:`WILDCARD` for ``ANY_TAG``/-1, or
    None when unresolvable.
    """
    if node is None:
        return default
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant) \
            and node.operand.value == 1:
        return WILDCARD
    dotted = dotted_name(node)
    if dotted is None:
        return None
    last = dotted.rsplit(".", 1)[-1]
    if last == "ANY_TAG":
        return WILDCARD
    if dotted in env:
        return env[dotted]
    if last.isupper():
        # A symbolic module constant we could not fold (e.g. an imported
        # Tags.* attribute): match send/recv sides textually.
        return dotted
    return None


def tag_symbol(node: ast.expr | None) -> str | None:
    """The last component of a symbolic tag expression, if any.

    ``Tags.KMER_REQUEST`` and ``message.Tags.KMER_REQUEST`` both yield
    ``KMER_REQUEST``.  Kept alongside the folded value so name-based
    protocol rules (MPI008) survive constant folding.
    """
    if node is None:
        return None
    dotted = dotted_name(node)
    if dotted is None:
        return None
    last = dotted.rsplit(".", 1)[-1]
    return last if last.isupper() and last != "ANY_TAG" else None


def constant_env(body: Sequence[ast.stmt],
                 base: dict[str, int] | None = None) -> dict[str, int]:
    """Integer constants bound by simple assignments in ``body``."""
    env = dict(base or {})
    for stmt in body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name) and \
                    isinstance(stmt.value, ast.Constant) and \
                    isinstance(stmt.value.value, int):
                env[target.id] = stmt.value.value
            elif isinstance(target, ast.Tuple) and \
                    isinstance(stmt.value, ast.Tuple):
                for t, v in zip(target.elts, stmt.value.elts):
                    if isinstance(t, ast.Name) and \
                            isinstance(v, ast.Constant) and \
                            isinstance(v.value, int):
                        env[t.id] = v.value
    return env


def module_env(tree: ast.Module) -> dict[str, int]:
    """Module constants, plus class-level constants as ``Cls.NAME``.

    Recording class bodies is what lets the tag registry itself
    (``class Tags`` in :mod:`repro.simmpi.message`) fold every
    ``Tags.X`` reference to its integer the moment that file is part of
    the lint set.
    """
    env = constant_env(tree.body)
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        for name, value in constant_env(stmt.body).items():
            env[f"{stmt.name}.{name}"] = value
    return env


# ----------------------------------------------------------------------
# summary records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommOp:
    """One send/recv/collective call on a communicator-like receiver."""

    path: str
    method: str
    node: ast.Call
    tag: Tag
    #: Uppercase last component of a symbolic tag expression
    #: (``KMER_REQUEST``), kept even when the value folded to an int.
    symbol: str | None
    #: True when the call sits under an ``if`` testing ``<comm>.rank``.
    rank_guarded: bool

    @property
    def line(self) -> int:
        return self.node.lineno

    @property
    def col(self) -> int:
        return self.node.col_offset


@dataclass(frozen=True)
class TagConsumer:
    """A site that demultiplexes on a specific tag value.

    Three shapes count: a constant-tag receive, a dispatch comparison
    (``msg.tag == Tags.X`` or ``msg.tag in (Tags.X, ...)``), and a
    handler-table registration (``protocol.handlers[Tags.X] = fn``).
    """

    path: str
    line: int
    tag: Tag
    symbol: str | None
    kind: str  # "recv" | "compare" | "handler"


@dataclass
class FunctionSummary:
    """One function's communication facts (phase-1 unit of extraction)."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    env: dict[str, int]
    comm_names: set[str]
    calls: list[CommOp] = field(default_factory=list)

    @property
    def sends(self) -> list[CommOp]:
        return [c for c in self.calls if c.method in SEND_METHODS]

    @property
    def recvs(self) -> list[CommOp]:
        return [c for c in self.calls if c.method in RECV_METHODS]

    @property
    def collectives(self) -> list[CommOp]:
        return [c for c in self.calls if c.method in COLLECTIVE_METHODS]


@dataclass
class ModuleSummary:
    """Everything phase 2 knows about one source file."""

    path: str
    tree: ast.Module
    env: dict[str, int]
    functions: list[FunctionSummary] = field(default_factory=list)
    consumers: list[TagConsumer] = field(default_factory=list)

    @property
    def sends(self) -> list[CommOp]:
        return [c for f in self.functions for c in f.sends]

    @property
    def recvs(self) -> list[CommOp]:
        return [c for f in self.functions for c in f.recvs]


@dataclass
class Program:
    """The whole lint set: every module summary plus the merged
    constant environment used to normalize tags across modules."""

    modules: list[ModuleSummary] = field(default_factory=list)
    env: dict[str, int] = field(default_factory=dict)

    @property
    def sends(self) -> list[CommOp]:
        return [c for m in self.modules for c in m.sends]

    @property
    def recvs(self) -> list[CommOp]:
        return [c for m in self.modules for c in m.recvs]

    @property
    def consumers(self) -> list[TagConsumer]:
        return [c for m in self.modules for c in m.consumers]

    def normalize(self, op_tag: Tag, symbol: str | None) -> Tag:
        """One canonical value per protocol tag, program-wide.

        Ints stay ints.  A symbolic tag folds to its int when the
        merged environment defines it (exactly, or unambiguously by its
        last component); otherwise it normalizes to the bare constant
        name so ``Tags.X`` in one module matches ``message.Tags.X`` in
        another.
        """
        if isinstance(op_tag, int) or op_tag == WILDCARD or op_tag is None:
            return op_tag
        if op_tag in self.env:
            return self.env[op_tag]
        last = op_tag.rsplit(".", 1)[-1]
        values = {
            v for k, v in self.env.items()
            if k == last or k.endswith("." + last)
        }
        if len(values) == 1:
            return values.pop()
        return symbol if symbol is not None else last


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
def _comm_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound to communicator-like objects inside ``fn``."""
    names: set[str] = set()
    args = fn.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        ann = a.annotation
        ann_name = dotted_name(ann) if ann is not None else None
        if a.arg.lower().endswith("comm") or (
                ann_name is not None and "Communicator" in ann_name):
            names.add(a.arg)
    # Names assigned from <comm>.split(...).
    for node in walk_no_nested_functions(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Call) and \
                isinstance(node.value.func, ast.Attribute) and \
                node.value.func.attr == "split":
            recv = dotted_name(node.value.func.value)
            if recv is not None and is_comm_name(recv, names):
                names.add(node.targets[0].id)
    return names


def mentions_rank(test: ast.expr, comm_names: set[str]) -> bool:
    """True when ``test`` reads ``<comm>.rank``."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            recv = dotted_name(node.value)
            if recv is not None and is_comm_name(recv, comm_names):
                return True
    return False


def _classify_call(node: ast.Call, path: str, comm_names: set[str],
                   env: dict[str, int], rank_guarded: bool) -> list[CommOp]:
    """The communication ops of one call: one, except that a
    ``take_queued`` is a receive of each tag of its literal ``tags``
    tuple or list (and one unresolved receive when ``tags`` is any
    other expression)."""
    if not isinstance(node.func, ast.Attribute):
        return []
    method = node.func.attr
    if method not in SEND_METHODS | RECV_METHODS | COLLECTIVE_METHODS:
        return []
    recv = dotted_name(node.func.value)
    if recv is None or not is_comm_name(recv, comm_names):
        return []

    def op(tag: Tag, tag_expr: ast.expr | None) -> CommOp:
        return CommOp(path=path, method=method, node=node, tag=tag,
                      symbol=tag_symbol(tag_expr), rank_guarded=rank_guarded)

    if method in SEND_METHODS:
        tag_expr = call_arg(node, 2, "tag")
        return [op(resolve_tag(tag_expr, env, default=0), tag_expr)]
    if method == "take_queued":
        tags = call_arg(node, 1, "tags")
        if not isinstance(tags, (ast.Tuple, ast.List)):
            return [op(None, None)]
        return [op(resolve_tag(elt, env, default=None), elt) for elt in tags.elts]
    if method in RECV_METHODS:
        tag_expr = call_arg(node, 1, "tag")
        return [op(resolve_tag(tag_expr, env, default=WILDCARD), tag_expr)]
    return [op(None, None)]


def _extract_calls(fn_summary: FunctionSummary, path: str) -> None:
    """Fill ``fn_summary.calls``, tracking rank-guard nesting."""

    comm_names = fn_summary.comm_names
    env = fn_summary.env

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not fn_summary.node:
            return
        if isinstance(node, ast.Call):
            fn_summary.calls.extend(
                _classify_call(node, path, comm_names, env, guarded)
            )
        if isinstance(node, ast.If) and mentions_rank(node.test, comm_names):
            for child in ast.iter_child_nodes(node):
                visit(child, child is not node.test or guarded)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(fn_summary.node, False)
    fn_summary.calls.sort(key=lambda c: (c.line, c.col))


def _tag_comparison_values(node: ast.Compare,
                           env: dict[str, int]) -> list[ast.expr]:
    """Tag-constant expressions compared against a tag expression.

    The tag side is either a ``.tag`` attribute (``msg.tag == Tags.X``)
    or a tag-named variable (``tag = msg.tag; if tag == Tags.X``), the
    repo's dispatch idioms.
    """

    def is_tag_attr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Attribute) and expr.attr == "tag":
            return True
        return isinstance(expr, ast.Name) and \
            expr.id.lower().endswith("tag")

    out: list[ast.expr] = []
    sides = [node.left, *node.comparators]
    for i, op in enumerate(node.ops):
        left, right = sides[i], sides[i + 1]
        if isinstance(op, (ast.Eq, ast.In)):
            if is_tag_attr(left):
                if isinstance(right, (ast.Tuple, ast.List, ast.Set)):
                    out.extend(right.elts)
                else:
                    out.append(right)
            elif is_tag_attr(right):
                out.append(left)
    return out


def _extract_consumers(summary: ModuleSummary,
                       fn_env: dict[str, int] | None = None) -> None:
    """Record every tag-demultiplexing site in the module."""
    env = dict(summary.env)
    if fn_env:
        env.update(fn_env)
    for node in ast.walk(summary.tree):
        if isinstance(node, ast.Compare):
            for expr in _tag_comparison_values(node, env):
                tag = resolve_tag(expr, env, default=None)
                sym = tag_symbol(expr)
                if tag is not None or sym is not None:
                    summary.consumers.append(TagConsumer(
                        path=summary.path, line=node.lineno, tag=tag,
                        symbol=sym, kind="compare",
                    ))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if not (isinstance(target, ast.Subscript) and
                        isinstance(target.value, (ast.Attribute, ast.Name))):
                    continue
                recv = dotted_name(target.value)
                if recv is None or not recv.rsplit(".", 1)[-1].lower() \
                        .endswith("handlers"):
                    continue
                tag = resolve_tag(target.slice, env, default=None)
                sym = tag_symbol(target.slice)
                if tag is not None or sym is not None:
                    summary.consumers.append(TagConsumer(
                        path=summary.path, line=node.lineno, tag=tag,
                        symbol=sym, kind="handler",
                    ))
    for f in summary.functions:
        for op in f.recvs:
            if op.tag != WILDCARD and (op.tag is not None or
                                       op.symbol is not None):
                summary.consumers.append(TagConsumer(
                    path=summary.path, line=op.line, tag=op.tag,
                    symbol=op.symbol, kind="recv",
                ))


def summarize_module(tree: ast.Module, path: str) -> ModuleSummary:
    """Phase 1 for one parsed module."""
    summary = ModuleSummary(path=path, tree=tree, env=module_env(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FunctionSummary(
                node=node,
                env=constant_env(node.body, base=summary.env),
                comm_names=_comm_names(node),
            )
            _extract_calls(fn, path)
            summary.functions.append(fn)
    _extract_consumers(summary)
    return summary


def build_program(summaries: Iterable[ModuleSummary]) -> Program:
    """Merge module summaries into the whole-program view."""
    program = Program(modules=list(summaries))
    for module in program.modules:
        program.env.update(module.env)
    return program
