"""Problem reduction on the classic ratio-trap instance.

in1 covers {bl1, bl2} at cost 2; in2 covers {bl1, bl3} at cost 3; in3
covers {bl2, bl4} at cost 3. The best coverage-per-cost pick (in1) is a
trap: bl3 and bl4 force in2 and in3 anyway, so {in2, in3} at cost 6 beats
the greedy total of 8.

Run: python3 demos/03_reduction.py
"""

from covmin.reduction import CoverIndex, determine_redundancy, reduce_problem, valid_orders_gain

cover = {
    1: frozenset({"bl1", "bl2"}),
    2: frozenset({"bl1", "bl3"}),
    3: frozenset({"bl2", "bl4"}),
}
costs = {1: 2, 2: 3, 3: 3}
ids = frozenset(cover)

# The sole cover of some block is necessary; the rest is redundant.
necessary, _ = determine_redundancy(cover)
for i in sorted(ids):
    print(f"in{i}:", "necessary" if i in necessary else "redundant")

# The removal gain works on bits: input k of the index is bit k of a mask.
index = CoverIndex.of(cover, costs)
gain, removed = valid_orders_gain((1 << len(index.inputs)) - 1, index)
print("\nmax removable cost:", gain, "via removal order", sorted(index.set_of(removed)))

result = reduce_problem(cover, costs)
print("necessary inputs:", sorted(result.necessary))
print("components left for the search:", len(result.components))
print("iterations to fixpoint:", result.iterations)

# A cycle of overlapping inputs survives reduction: nothing is necessary,
# nothing dominated, so the genetic search gets a real component.
cycle_cover = {
    1: frozenset({"a", "b"}),
    2: frozenset({"b", "c"}),
    3: frozenset({"c", "d"}),
    4: frozenset({"d", "a"}),
}
cycle_costs = {1: 5, 2: 5, 3: 5, 4: 5}
cycle = reduce_problem(cycle_cover, cycle_costs)
print("\n4-cycle: necessary =", sorted(cycle.necessary),
      "components =", [sorted(c.inputs) for c in cycle.components])
