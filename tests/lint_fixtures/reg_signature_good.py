# repro-lint-fixture: module=repro.experiments.extra_methods
"""Good: a registered callable takes exactly one parameter, the Problem."""

from repro.experiments.methods import register_method


@register_method("walk")
def walk(problem):
    return problem
