"""Static verification for deployment models and middleware code.

Two pillars behind one rule-engine core (:mod:`repro.lint.core`):

* the **model verifier** (:mod:`repro.lint.model_rules`,
  :mod:`repro.lint.xadl_rules`) — checks ``DeploymentModel``s, xADL
  documents, constraint sets, and objective contracts before algorithms
  search them or the effector migrates live components;
* the **code analyzer** (:mod:`repro.lint.code`) — per-file AST rules
  enforcing this repository's locking, error-handling and registry
  conventions, plus the determinism pack (:mod:`repro.lint.determinism`).

Entry points: ``python -m repro lint`` on the command line,
:func:`verify_deployment` as the effector/batch pre-flight gate, and the
rule registries for custom rules (see ``docs/STATIC_ANALYSIS.md``).
"""

from repro.lint.baseline import (
    apply_baseline, finding_fingerprint, load_baseline, write_baseline,
)
from repro.lint.code import (
    CODE_RULES, CodeLintContext, CodeRule, analyze_paths, analyze_source,
    code_rule_registry, iter_python_files,
)
from repro.lint.core import (
    Finding, LintReport, Rule, RuleRegistry, Severity, render_json,
    render_text,
)
from repro.lint.determinism import DETERMINISM_RULES
from repro.lint.sarif import render_sarif, sarif_log
from repro.lint.fault_rules import (
    FAULT_RULES, FaultPlanLintContext, FaultPlanRule, fault_rule_registry,
    verify_fault_plan,
)
from repro.lint.model_rules import (
    MODEL_RULES, ModelLintContext, ModelRule, default_objectives,
    model_rule_registry, verify_deployment, verify_model,
)
from repro.lint.plan_rules import (
    PLAN_RULES, ScheduleLintContext, ScheduleRule, plan_rule_registry,
    verify_schedule,
)
from repro.lint.xadl_rules import (
    DOCUMENT_RULES, verify_xadl_file, verify_xadl_source,
)

__all__ = [
    "CODE_RULES",
    "CodeLintContext",
    "CodeRule",
    "DETERMINISM_RULES",
    "DOCUMENT_RULES",
    "FAULT_RULES",
    "FaultPlanLintContext",
    "FaultPlanRule",
    "Finding",
    "LintReport",
    "MODEL_RULES",
    "ModelLintContext",
    "ModelRule",
    "PLAN_RULES",
    "Rule",
    "RuleRegistry",
    "ScheduleLintContext",
    "ScheduleRule",
    "Severity",
    "analyze_paths",
    "analyze_source",
    "apply_baseline",
    "code_rule_registry",
    "default_objectives",
    "fault_rule_registry",
    "finding_fingerprint",
    "iter_python_files",
    "load_baseline",
    "model_rule_registry",
    "plan_rule_registry",
    "render_json",
    "render_sarif",
    "render_text",
    "sarif_log",
    "verify_deployment",
    "verify_fault_plan",
    "verify_model",
    "verify_schedule",
    "verify_xadl_file",
    "verify_xadl_source",
]
