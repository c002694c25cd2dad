"""Exception hierarchy for the deployment improvement framework.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers embedding the framework can catch a single base class.  The
sub-hierarchy mirrors the framework's high-level components (model,
algorithm, analyzer, monitor, effector) described in Section 3 of the paper.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ModelError(ReproError):
    """A problem with the deployment model (unknown entity, bad parameter)."""


class UnknownEntityError(ModelError):
    """An operation referenced a host, component, or link not in the model."""

    def __init__(self, kind: str, identifier: str):
        super().__init__(f"unknown {kind}: {identifier!r}")
        self.kind = kind
        self.identifier = identifier


class DuplicateEntityError(ModelError):
    """An entity with the same identifier already exists in the model."""

    def __init__(self, kind: str, identifier: str):
        super().__init__(f"duplicate {kind}: {identifier!r}")
        self.kind = kind
        self.identifier = identifier


class ParameterError(ModelError):
    """A parameter value violated its definition (type, bounds, kind)."""


class DeploymentError(ReproError):
    """An invalid deployment mapping (component deployed nowhere/twice)."""


class ConstraintViolationError(ReproError):
    """A deployment was rejected because it violates a hard constraint."""

    def __init__(self, constraint: object, detail: str = ""):
        message = f"constraint violated: {constraint}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.constraint = constraint
        self.detail = detail


class AlgorithmError(ReproError):
    """An algorithm could not produce a valid deployment."""


class NoValidDeploymentError(AlgorithmError):
    """The constraint set admits no deployment at all."""


class EvaluationBudgetExceeded(AlgorithmError):
    """An evaluation engine exhausted its evaluation budget.

    Raised from :class:`repro.algorithms.engine.EvaluationEngine` when a
    per-run budget runs out.  :meth:`DeploymentAlgorithm.run` catches it and
    degrades to the best deployment scored so far (graceful truncation); it
    only escapes to callers when truncation has nothing to fall back on.
    """


class AnalyzerError(ReproError):
    """The analyzer could not select a course of action."""


class RegistryError(ReproError):
    """Misuse of an algorithm registry (not an analysis failure)."""


class DuplicateAlgorithmError(RegistryError):
    """An algorithm with the same name is already registered."""

    def __init__(self, name: str):
        super().__init__(f"algorithm {name!r} already registered")
        self.name = name


class UnknownAlgorithmError(RegistryError):
    """An operation referenced an algorithm that is not registered."""

    def __init__(self, name: str):
        super().__init__(f"algorithm {name!r} is not registered")
        self.name = name


class LintError(ReproError):
    """Static verification produced blocking (error-severity) findings.

    Carries the machine-readable findings so callers can render or log
    them; the message embeds a short summary of the first few.
    """

    def __init__(self, message: str, findings: object = ()):
        self.findings = tuple(findings)  # repro.lint.core.Finding instances
        if self.findings:
            shown = "; ".join(str(f) for f in self.findings[:3])
            more = len(self.findings) - 3
            if more > 0:
                shown += f"; ... and {more} more"
            message = f"{message}: {shown}"
        super().__init__(message)


class PreflightError(LintError):
    """An effector refused to enact a plan that failed static verification."""


class MonitoringError(ReproError):
    """A monitor failed to produce data for a model parameter."""


class EffectorError(ReproError):
    """Redeployment could not be effected on the implementation platform."""


class MigrationError(EffectorError):
    """A component migration failed mid-flight."""


class MigrationTimeoutError(MigrationError):
    """A redeployment did not converge within its timeout.

    Raised instead of returning a silently-partial
    :class:`~repro.core.effector.EffectReport`: callers must either see the
    plan complete or see this error (after the effector has retried and, for
    transactional plans, rolled back).  Carries the pending moves at expiry
    and, when raised by :meth:`MiddlewareEffector.effect`, the final
    ``report`` describing what was retried and rolled back.
    """

    def __init__(self, message: str, pending: object = None,
                 report: object = None):
        super().__init__(message)
        self.pending = dict(pending) if pending else {}
        self.report = report


class ScheduleError(EffectorError):
    """No constraint-safe migration schedule exists, or a schedule
    document is malformed.

    Raised by :class:`repro.plan.MigrationPlanner` when no wave ordering
    (even through buffer-host staging) keeps every barrier state inside
    the constraint set, and by the schedule loaders on structurally
    invalid documents.  The lint rules ``PL001``–``PL003`` report
    schedule problems all-at-once without raising.
    """


class MiddlewareError(ReproError):
    """An error inside the Prism-MW style middleware substrate."""


class SerializationError(MiddlewareError):
    """A component or event could not be (de)serialized for migration."""


class XadlError(SerializationError):
    """An xADL document is structurally invalid.

    Raised (instead of constructing a broken model) when a document's link
    or deployment elements reference undeclared hosts/components, when
    required attributes are missing, or when entity ids collide.
    """


class FaultPlanError(ReproError):
    """A fault-injection plan is invalid (unknown refs, bad times, overlap).

    Raised by :meth:`repro.faults.FaultPlan.validate` and by the plan
    loaders; the lint rules ``FP001``–``FP004`` report the same problems
    all-at-once without raising.
    """


class NetworkError(ReproError):
    """A simulated network operation failed (disconnected link, timeout)."""


class LinkDownError(NetworkError):
    """A message was dropped because the physical link is disconnected."""


class SynchronizationError(ReproError):
    """Decentralized model/algorithm synchronization failed."""


class AuctionError(ReproError):
    """A DecAp auction could not complete."""
