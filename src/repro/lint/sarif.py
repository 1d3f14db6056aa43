"""SARIF 2.1.0 export — findings as GitHub code-scanning annotations.

``python -m repro lint --format sarif`` emits one run with the full
rule catalogue as ``tool.driver.rules`` so code scanning renders rule
help inline.  Only the subset of SARIF that GitHub's upload action
consumes is produced: schema/version, driver metadata, rule
descriptors, and physical locations.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .engine import Finding, all_rules

__all__ = ["to_sarif", "render_sarif"]

_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_LEVELS = {"error": "error", "warning": "warning"}


def _rule_catalogue() -> list[dict[str, Any]]:
    descriptors: list[dict[str, Any]] = []
    for rule in all_rules():
        descriptors.append(
            {
                "id": rule.id,
                "name": type(rule).__name__,
                "shortDescription": {"text": rule.summary},
                "properties": {
                    "family": rule.family,
                    "scopes": list(rule.scopes),
                },
                "defaultConfiguration": {
                    "level": _LEVELS.get(rule.severity, "warning")
                },
            }
        )
    # Engine-synthesised findings have no Rule object behind them.
    for synth_id, text in (
        ("PARSE", "file does not parse"),
        ("NOQA", "stale suppression comment"),
    ):
        descriptors.append(
            {
                "id": synth_id,
                "name": synth_id.title(),
                "shortDescription": {"text": text},
                "defaultConfiguration": {"level": "error"},
            }
        )
    return descriptors


def to_sarif(findings: Sequence[Finding]) -> dict[str, Any]:
    """Build the SARIF log object for a list of findings."""
    results = [
        {
            "ruleId": f.rule,
            "level": _LEVELS.get(f.severity, "warning"),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": f.line,
                            "startColumn": max(1, f.col),
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": _rule_catalogue(),
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF log as an indented JSON string (what the CLI prints)."""
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True)
