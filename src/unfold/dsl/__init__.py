"""Surface syntax: annotation parsing, rendering, desugaring to first-order
cursor-loop skeletons, and scenario execution."""

from .parser import (
    CallSpec,
    DeclSpec,
    Invocation,
    Scenario,
    parse_call,
    parse_decl,
    parse_scenario,
    parse_spec_file,
    parse_term_text,
)
from .render import render_call, render_decl, render_term
from .desugar import desugar, desugar_file


def __getattr__(name: str):
    # The scenario runner imports graphs, and graphs parses its step
    # invariants with this package: load the runner on first use.
    if name in ("Report", "ReportRow", "run_scenario"):
        from . import scenario
        return getattr(scenario, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CallSpec",
    "DeclSpec",
    "Invocation",
    "Report",
    "ReportRow",
    "Scenario",
    "desugar",
    "desugar_file",
    "parse_call",
    "parse_decl",
    "parse_scenario",
    "parse_spec_file",
    "parse_term_text",
    "render_call",
    "render_decl",
    "render_term",
    "run_scenario",
]
