"""The rule framework: findings, rule objects, and the registry.

A :class:`Rule` packages everything the linter knows about one
diagnostic: its code (``MPI0xx``), severity, a one-line summary (shown
by ``repro lint --list-rules``), a documentation string (shown by
``repro lint --explain MPI0xx``), and up to two check callables:

* ``module_check(summary)`` — phase 1, runs once per module against
  that module's :class:`~repro.analysis.summary.ModuleSummary`;
* ``program_check(program)`` — phase 2, runs once per lint invocation
  against the :class:`~repro.analysis.summary.Program` holding *every*
  module summary, so protocols that span files (a send in one module
  answered by a handler in another) are matched whole-program.

Rules register themselves at import time via :func:`register`; the
registry is keyed by code and iterated in sorted-code order, but no
rule may depend on execution order — each check sees only immutable
summaries and returns its own findings (a property test pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.summary import ModuleSummary, Program

#: Finding severities, mapped onto SARIF levels by the output layer.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One lint diagnosis, reported as ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """One diagnostic: identity, docs, and its check phases."""

    code: str
    name: str
    severity: str
    summary: str
    doc: str
    module_check: Callable[["ModuleSummary"], list[Finding]] | None = field(
        default=None, repr=False
    )
    program_check: Callable[["Program"], list[Finding]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.code}: severity must be one of {SEVERITIES}"
            )


_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add a rule to the registry (its code must be unused)."""
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in sorted-code order."""
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def get_rule(code: str) -> Rule | None:
    """The rule registered under ``code``, or None."""
    return _REGISTRY.get(code)


class _RuleCatalogue(Mapping[str, str]):
    """Live code -> one-line-summary view of the registry.

    Kept as a mapping (not a snapshot dict) so ``RULES`` — the public
    name tests and the CLI have always used — stays in sync with rules
    registered after import.
    """

    def __getitem__(self, code: str) -> str:
        return _REGISTRY[code].summary

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(_REGISTRY))

    def __len__(self) -> int:
        return len(_REGISTRY)


#: Rule codes and their one-line descriptions.
RULES: Mapping[str, str] = _RuleCatalogue()
