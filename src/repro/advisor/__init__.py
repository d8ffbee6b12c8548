"""Cost-based adaptive cache advisor (DESIGN.md §17).

Decides *what* to cache and evict from observed behaviour instead of
hand-annotation: a lineage cost model prices every cacheable intermediate
as ``recompute_cost x expected_reuse / bytes_held``, an eviction policy
(``Config.eviction_policy = "cost"``) ranks blocks by that value density
inside the memory manager's tiered shedding, and an auto-cache hook in the
SQL session transparently materializes hot recurring queries under the
budget.
"""

from repro.advisor.advisor import CacheAdvisor
from repro.advisor.cost_model import DecayedCounter, lineage_depth, value_density

__all__ = [
    "CacheAdvisor",
    "DecayedCounter",
    "lineage_depth",
    "value_density",
]
