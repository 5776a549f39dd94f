"""Standard elements (the Click distribution analogues)."""

from .fromdevice import FromDevice
from .todevice import ToDevice
from .checkipheader import CheckIPHeader
from .classifier import Classifier
from .queue import QueueElement
from .counter import Counter
from .discard import Discard

__all__ = [
    "FromDevice",
    "ToDevice",
    "CheckIPHeader",
    "Classifier",
    "QueueElement",
    "Counter",
    "Discard",
]
