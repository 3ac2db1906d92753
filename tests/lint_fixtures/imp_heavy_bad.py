# repro-lint-fixture: module=repro.algorithms.ilp_mapping
"""Bad: module-level imports that load scipy/networkx outside the heavy modules (IMP001)."""

import scipy  # repro-lint-expect: IMP001

from repro.ilp import Model, solve_with_scipy  # repro-lint-expect: IMP001

try:
    import networkx as nx  # repro-lint-expect: IMP001
except ImportError:
    nx = None

from repro.experiments import *  # repro-lint-expect: IMP001


def ilp_best(chain):
    return solve_with_scipy(Model("m")), scipy.__version__, nx
