"""Suite-wide hypothesis profiles.

Tier-1 must be the same suite on every run, so the default profile is
derandomized: each property draws the examples its own source determines,
and a failure reproduces on the next run and on CI.  Searching for *new*
counterexamples is a separate, explicit activity:

    PYTHONPATH=src python -m pytest tests/sim tests/query tests/storage tests/data \
        tests/engine/test_sharing_decision.py tests/engine/test_aggregate_kernel.py \
        tests/engine/test_property_equivalence.py tests/shard/test_partition.py \
        --hypothesis-profile=explore

(the hypothesis pytest plugin's own option; it is applied after this file
is imported, so it overrides the default loaded below).  A counterexample
found that way is pinned with ``@example`` next to the fix.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
