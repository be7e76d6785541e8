"""Small shared utilities: timers, validation, deterministic RNG."""

from repro.utils.timing import Timer
from repro.utils.validate import (
    check_contact_groups,
    check_finite_coords,
    check_index_array,
    check_square_csr,
    check_symmetric,
)

__all__ = [
    "Timer",
    "check_contact_groups",
    "check_finite_coords",
    "check_index_array",
    "check_square_csr",
    "check_symmetric",
]
