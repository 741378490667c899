"""Search caps for the exhaustive enumerations.

Every exhaustive search takes an optional cap argument; `None` means "use the
default", which can be overridden globally through the HDX_CAP environment
variable (a positive integer). Exceeding a cap raises SearchSpaceTooLarge
instead of silently sampling.
"""

import os

from .errors import InputFormatError

DEFAULT_CANDIDATE_CAP = 1 << 24
DEFAULT_SKELETON_VERTEX_CAP = 22
DEFAULT_BUILDING_FACE_CAP = 400


def candidate_cap(cap=None):
    """Resolve an explicit cap, the HDX_CAP override, or the default."""
    if cap is not None:
        return int(cap)
    env = os.environ.get("HDX_CAP")
    if env is None:
        return DEFAULT_CANDIDATE_CAP
    try:
        value = int(env)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise InputFormatError(f"HDX_CAP must be a positive integer, got {env!r}")
    return value
