"""Branched multi-task architecture search on a layered toy supergraph.

Tree-like branching structures over a shared encoder are searched with a
Gumbel-Softmax relaxation and an exact, differentiable expected-cost
resource loss computed by inclusion-exclusion over task subsets.

No module imports `dataclasses`, whose generated methods cost up to a
millisecond of import time per class. A record that checks nothing is a
`typing.NamedTuple`. A record that checks its input is a plain class whose
`__init__` checks it and sets each attribute once; nothing assigns one
later. Of the plain classes, `Partition`, `CostTable`, `SupergraphSpec`
and `BranchedStructure` compare by value, and of those only `Partition` is
hashable; the others compare by identity.
"""

__version__ = "0.1.0"
