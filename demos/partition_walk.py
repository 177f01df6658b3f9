"""Tour of the grouping lattice: enumeration, refinement, meets, and how
layer-wise groupings pin down the cost of a branched encoder."""

from bmtas.graph import SupergraphSpec, count_structures, derive_groupings, structure_cost
from bmtas.partition import Partition, enumerate_partitions, meet, refines

print("== all groupings of four tasks ==")
parts = enumerate_partitions(4)
print(f"{len(parts)} partitions (Bell number B_4):")
for p in parts:
    print(f"  {p}  blocks={[list(b) for b in p.blocks()]}")

print()
print("== refinement ==")
fine = Partition((0, 1, 0, 1))
coarse = Partition((0, 0, 0, 0))
print(f"{fine} refines {coarse}: {refines(fine, coarse)}")
print(f"{coarse} refines {fine}: {refines(coarse, fine)}")

# the meet is the coarsest common refinement; it is what an extra layer of
# independent routing decisions does to an existing grouping
a = Partition((0, 0, 1, 1))
b = Partition((0, 1, 1, 1))
print(f"meet({a}, {b}) = {meet(a, b)}")

print()
print("== branched structures over a three-layer chain ==")
spec = SupergraphSpec([8, 8, 8, 8])
print(f"valid refinement chains: {count_structures(4, 3)}")

# build one by hand from per-task picks: row t lists task t's operation per layer
structure = derive_groupings([(0, 0, 0), (0, 0, 1), (0, 2, 2), (0, 2, 3)])
print("groupings per layer:", [str(g) for g in structure.groupings])
print(f"cost: {structure_cost(structure, spec.cost_table):.0f} MAdds "
      f"(fully shared would be {spec.cost_table.fully_shared_cost:.0f})")
