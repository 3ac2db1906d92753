# repro-lint-fixture: module=repro.experiments.methods
"""Bad: Method.fingerprint no longer hashes solve_batch (KEY002).

Editing a batched kernel would then leave every cache key unchanged and
replay stale entries — PR 6's fingerprint contract.
"""


class Method:
    def __init__(self, name, solve, solve_batch=None):
        self.name = name
        self.solve = solve
        self.solve_batch = solve_batch

    def fingerprint(self):  # repro-lint-expect: KEY002
        parts = [self.name, self.solve.__code__.co_code.hex()]
        return "|".join(parts)
