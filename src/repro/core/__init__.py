"""Core models of the paper: task chains, platforms, interval mappings,
and the evaluation of a mapping's reliability / latency / period
(Section 2 "Framework" and Section 4 "Evaluation of a given mapping").
"""

from repro._lazy import lazy_exports

_LAZY = {
    "TaskChain": "repro.core.chain",
    "Platform": "repro.core.platform",
    "Ensemble": "repro.core.ensemble",
    "ensembles_from_instances": "repro.core.ensemble",
    "instance_digest": "repro.core.ensemble",
    "Interval": "repro.core.interval",
    "Mapping": "repro.core.mapping",
    "MappingEvaluation": "repro.core.evaluation",
    "compositions": "repro.core.interval",
    "partition_from_cuts": "repro.core.interval",
    "evaluate_mapping": "repro.core.evaluation",
    "expected_cost": "repro.core.evaluation",
    "worst_case_cost": "repro.core.evaluation",
    "interval_log_reliability": "repro.core.evaluation",
    "stage_log_reliability": "repro.core.evaluation",
    "mapping_log_reliability": "repro.core.evaluation",
    "random_chain": "repro.core.generate",
    "random_platform": "repro.core.generate",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
