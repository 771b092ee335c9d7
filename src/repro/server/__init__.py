"""The query service layer: admission control, adaptive routing, SLOs.

The paper's engines execute *batches*; this package serves *streams*.  An
open-loop arrival process (:mod:`repro.server.arrivals`) feeds a bounded
admission queue (:mod:`repro.server.admission`) in the one serving core
(:class:`~repro.server.service.Service`), which drives either the
in-process engines or the shard tier (:mod:`repro.shard`); a routing policy
(:mod:`repro.server.router`) picks query-centric SP or the shared GQP per
query -- the paper's concluding recommendation, generalized from
``HybridEngine``'s static threshold to a feedback controller -- and
:class:`~repro.server.metrics.ServiceMetrics` reports what a serving
system is judged on: latency percentiles, throughput and shed load.

Typical use::

    from repro.data import generate_ssb
    from repro.server import serve

    report = serve(generate_ssb(1.0, seed=42).tables,
                   policy="adaptive", arrival="poisson",
                   rate=8.0, duration=10.0)
    print(report.render())
"""

from repro.server.admission import AdmissionQueue, QueuedQuery
from repro.server.arrivals import (
    ARRIVALS,
    ArrivalProcess,
    BurstArrivals,
    PoissonArrivals,
    TraceArrivals,
    UniformArrivals,
    make_arrivals,
)
from repro.server.config import ServiceConfig
from repro.server.metrics import ServiceMetrics
from repro.server.router import (
    GQP,
    POLICIES,
    QUERY_CENTRIC,
    AdaptivePolicy,
    RoutingPolicy,
    StaticThresholdPolicy,
    make_policy,
    spec_features,
)
from repro.server.service import (
    SERVE_WORKLOADS,
    QueryService,
    Service,
    ServiceReport,
    job_factory,
    recurring_job_factory,
    serve,
)

__all__ = [
    "ARRIVALS",
    "AdaptivePolicy",
    "AdmissionQueue",
    "ArrivalProcess",
    "BurstArrivals",
    "GQP",
    "POLICIES",
    "PoissonArrivals",
    "QUERY_CENTRIC",
    "QueryService",
    "QueuedQuery",
    "RoutingPolicy",
    "SERVE_WORKLOADS",
    "Service",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceReport",
    "StaticThresholdPolicy",
    "TraceArrivals",
    "UniformArrivals",
    "job_factory",
    "make_arrivals",
    "make_policy",
    "recurring_job_factory",
    "serve",
    "spec_features",
]
