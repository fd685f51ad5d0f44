"""Enumeration ceilings.

Every exhaustive kernel checks its workload against a ceiling before it
starts, through check_budget.  The environment variable LOCALLAB_BUDGET,
when set to an integer, overrides all of them at once.
"""

import os
import sys

from .errors import BudgetExceededError, LocalLabError

# ordered 2r-tuple enumeration in the brute-force energy count
BRUTE_FORCE_TUPLE_BUDGET = 10**9

# edges materialized when building an energy graph
ENERGY_GRAPH_EDGE_BUDGET = 10**7

# k-subsets (or sampled trials) visited by one local-property scan
SUBSET_SCAN_BUDGET = 10**9

# search nodes of the exact minimization oracles, and neighbor-weighted cycle-search steps
ORACLE_NODE_BUDGET = 10**8

# value span of an int set under a difference-set or 3-AP presence array
PRESENCE_SPAN_BUDGET = 10**8

# pairs C(n, 2) of the difference-set and 3-AP presence-array loops
PRESENCE_PAIR_BUDGET = 10**9

# pairs C(n, 2) of the exact difference-set and 3-AP loops past that span
EXACT_PAIR_BUDGET = 10**7


def budget(default):
    """Return the override from LOCALLAB_BUDGET, or `default`."""
    raw = os.environ.get("LOCALLAB_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise LocalLabError(f"LOCALLAB_BUDGET must be an integer, got {raw!r}") from None


def digit_limit():
    """The most digits this interpreter converts an int to or from text; 0 for no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def check_budget(default, requested, what):
    """Return budget(default), or raise BudgetExceededError when `requested` exceeds it."""
    ceiling = budget(default)
    if requested > ceiling:
        limit = digit_limit()
        count = f"at least 10^{limit}" if limit and requested >= 10**limit else requested
        raise BudgetExceededError(f"{count} {what} exceed the budget {ceiling}")
    return ceiling
