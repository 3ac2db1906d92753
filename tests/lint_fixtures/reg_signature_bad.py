# repro-lint-fixture: module=repro.experiments.extra_methods
"""Bad: a registered callable takes a parameter the harness never passes (REG002)."""

from repro.experiments.methods import register_method


@register_method("anneal")  # repro-lint-expect: REG002
def anneal(problem, seed=None):
    return problem, seed


@register_method("walk")  # repro-lint-expect: REG002
def walk(problem, extra):
    return problem, extra
