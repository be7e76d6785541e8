"""Reordering methods for parallel/vector performance (paper section 4).

The paper uses multicolor (MC) ordering so that all rows inside one color
are mutually independent: factorization and forward/backward substitution
can then be vectorized within a color.  Reverse Cuthill-McKee groups the
nodes of the Fig. 7 CEBE clusters, and the
:class:`~repro.reorder.coloring.Coloring` container is what every
downstream consumer (factorization engine, DJDS builder, performance
model) receives.
"""

from repro.reorder.coloring import Coloring
from repro.reorder.graph import adjacency_from_pattern
from repro.reorder.multicolor import greedy_color, multicolor
from repro.reorder.rcm import cuthill_mckee, reverse_cuthill_mckee

__all__ = [
    "Coloring",
    "adjacency_from_pattern",
    "greedy_color",
    "multicolor",
    "cuthill_mckee",
    "reverse_cuthill_mckee",
]
