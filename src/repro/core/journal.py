"""``JournaledAllocation``: the former name of the journaled allocation.

The journal, rollback/replay, the regret cache and ``grow`` now live on
:class:`~repro.core.allocation.Allocation` (DESIGN.md §15).  The end-to-end
benchmark (``perfbench/``) imports this name and patches ``rollback_to`` /
``replay`` on it, so the alias stays until that benchmark next changes.
"""

from repro.core.allocation import Allocation

JournaledAllocation = Allocation
