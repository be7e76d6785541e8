"""Selective blocking — the paper's primary contribution.

This package owns the contact-group-to-super-node machinery: detecting
strongly coupled node groups, building selective blocks, and the ordering
policies (size sorting, dummy padding census) that make the blocks
vector-friendly on the Earth Simulator.
"""

from repro.core.selective_blocking import (
    detect_contact_groups,
    selective_block_supernodes,
    selective_blocks_from_groups,
)

__all__ = [
    "detect_contact_groups",
    "selective_block_supernodes",
    "selective_blocks_from_groups",
]
