"""Search caps for the exhaustive enumerations.

The candidate cap has one setting, the HDX_CAP environment variable (a
positive integer), else DEFAULT_CANDIDATE_CAP. `candidate_cap` reads it
where a search compares its size against it: `cosets.combinations` and four
scans in `expansion`. Exceeding the cap raises SearchSpaceTooLarge instead
of silently sampling. The skeleton and building caps are constants.
"""

import os

from .errors import InputFormatError

DEFAULT_CANDIDATE_CAP = 1 << 24
DEFAULT_SKELETON_VERTEX_CAP = 22
DEFAULT_BUILDING_FACE_CAP = 400


def candidate_cap():
    """The HDX_CAP override, or the default."""
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
