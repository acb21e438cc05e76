"""The two-population genetic search on one component.

Roofers always cover every objective and compete on cost; misers are
non-dominated partial covers that keep cheap building blocks alive. The
search returns a least-cost roofer.

Run: python3 demos/04_search.py
"""

from covmin.config import RunConfig
from covmin.search import ComponentProblem, mocco_run

cover = {
    1: frozenset({"bl1", "bl2"}),
    2: frozenset({"bl1", "bl3"}),
    3: frozenset({"bl2", "bl4"}),
}
costs = {1: 2, 2: 3, 3: 3}

# The search speaks int bitmasks over the sorted inputs: bit k is
# problem.index.inputs[k]. mask_of and set_of convert.
problem = ComponentProblem(cover, costs)
for members in ({2, 3}, {1, 2}):
    cost, fitness = problem.evaluate(problem.mask_of(members))
    print(f"cost, fitness of {members}:", cost, [round(v, 3) for v in fitness])
print("exposure of {2}:", round(problem.exposure(problem.individual(problem.mask_of({2}))), 3))

trace = []


def watch(gen, pops):
    cheapest = min(pops.roofers, key=lambda r: r.cost)
    trace.append((gen, cheapest.cost, sorted(problem.set_of(cheapest.mask)), len(pops.misers)))


result = mocco_run(cover, costs,
                   RunConfig(n_size=6, generations=40), seed=11,
                   on_generation=watch)

print("\ngen  best-roofer-cost  best-roofer  misers")
for gen, best, members, misers in trace[:5] + trace[-2:]:
    print(f"{gen:>3}  {best:>16}  {str(members):>11}  {misers:>6}")

print("\nselected:", sorted(result),
      "cost", sum(costs[i] for i in result),
      "(greedy ratio picking would have paid 8)")
