# repro-lint-fixture: module=repro.algorithms.ilp_mapping
"""Good: heavy imports inside the function that uses them, or for typing only."""

from typing import TYPE_CHECKING

from repro.ilp import Model

if TYPE_CHECKING:
    from repro.rbd import RBD


def ilp_best(chain) -> "RBD | None":
    import scipy

    from repro.ilp import solve_with_scipy

    return solve_with_scipy(Model("m")), scipy.__version__
