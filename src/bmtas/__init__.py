"""Branched multi-task architecture search on a layered toy supergraph.

Tree-like branching structures over a shared encoder are searched with a
Gumbel-Softmax relaxation and an exact, differentiable expected-cost
resource loss computed on the partition lattice of task groupings.
"""

__version__ = "0.1.0"
