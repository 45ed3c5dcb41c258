"""Descriptive proximity spaces, antipodal search, and surface lifting.

The public names are exactly those in the five modules' __all__ lists."""

from .borsuk import *
from .geometry import *
from .io import *
from .proximity import *
from .surfaces import *

__version__ = "0.1.0"
