"""Parameter-server service mode: live workers over sockets.

See :mod:`repro.serve.protocol` for versioning and the lifecycle,
:mod:`repro.serve.service` for the daemon and its pull link, and
:mod:`repro.serve.client` for the worker process.
"""

from repro.serve.client import ClientError, ServiceClient
from repro.serve.protocol import (
    ACTIVE,
    DRAINING,
    GONE,
    PROTOCOL_VERSION,
    RosterEntry,
)
from repro.serve.service import (
    FedMPService,
    PullLink,
    ServiceDrained,
    ServiceError,
)

__all__ = [
    "ACTIVE",
    "DRAINING",
    "GONE",
    "PROTOCOL_VERSION",
    "RosterEntry",
    "ClientError",
    "ServiceClient",
    "FedMPService",
    "PullLink",
    "ServiceDrained",
    "ServiceError",
]
