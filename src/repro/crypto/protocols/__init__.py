"""Online 2PC protocols for every operator a compiled plan runs.

Importing this package also runs every ``@register_protocol`` decorator, so
the plan runtime's registry (:mod:`repro.crypto.protocols.registry`) is fully
populated as a side effect.
"""

from repro.crypto.protocols import structural  # noqa: F401  (registers handlers)
from repro.crypto.protocols.activation import secure_relu, secure_x2act
from repro.crypto.protocols.arithmetic import (
    add_public,
    multiply,
    multiply_public,
    square,
)
from repro.crypto.protocols.comparison import (
    drelu,
    millionaire_gt,
    secure_and,
    select,
)
from repro.crypto.protocols.linear import (
    fold_batchnorm,
    ring_conv2d,
    ring_matmul,
    secure_conv2d_public_weight,
    secure_linear_public_weight,
)
from repro.crypto.protocols.pooling import (
    secure_avgpool2d,
    secure_global_avgpool,
    secure_maxpool2d,
)
from repro.crypto.protocols.registry import (
    OpTrace,
    ProtocolHandler,
    RandomnessRequest,
    get_handler,
    register_protocol,
    registered_kinds,
)

__all__ = [
    "OpTrace",
    "ProtocolHandler",
    "RandomnessRequest",
    "get_handler",
    "register_protocol",
    "registered_kinds",
    "multiply",
    "square",
    "multiply_public",
    "add_public",
    "millionaire_gt",
    "drelu",
    "secure_and",
    "select",
    "secure_relu",
    "secure_x2act",
    "secure_conv2d_public_weight",
    "secure_linear_public_weight",
    "ring_conv2d",
    "ring_matmul",
    "fold_batchnorm",
    "secure_maxpool2d",
    "secure_avgpool2d",
    "secure_global_avgpool",
]
