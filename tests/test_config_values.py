"""The configs are the one validator of a run's settings: a value that
would be ignored without a word, never take effect, or crash the run
later is refused at construction.  The checks read ``not x > 0``, so NaN
is refused with the negatives."""

import math

import pytest

from repro.server.config import ServiceConfig
from repro.shard import ShardConfig
from repro.storage import StorageConfig

NAN = math.nan


@pytest.mark.parametrize(
    "config, values",
    [
        # NaN > 0 is false: the run would silently build no cache
        (StorageConfig, {"result_cache_bytes": NAN}),
        # the buffer pool would refuse it only once a run started
        (StorageConfig, {"bufferpool_bytes": -1.0}),
        (StorageConfig, {"bufferpool_bytes": 0.0}),
        (StorageConfig, {"bufferpool_bytes": NAN}),
        (StorageConfig, {"os_cache_bytes": -1.0}),
        (StorageConfig, {"os_cache_bytes": NAN}),
        # now > NaN is false: the deadline would never shed a query
        (ServiceConfig, {"queue_timeout": NAN}),
        (ShardConfig, {"shard_timeout_s": NAN}),
    ],
    ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else v.__name__,
)
def test_config_refuses_a_value_that_breaks_a_run(config, values):
    with pytest.raises(ValueError):
        config(**values)


def test_boundary_values_are_accepted():
    StorageConfig(os_cache_bytes=0.0, result_cache_bytes=0.0)
    ServiceConfig(queue_timeout=None)
