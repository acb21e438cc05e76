"""The two-population genetic search on one component.

Roofers always cover every objective and compete on cost; misers are
non-dominated partial covers that keep cheap building blocks alive. The
search returns a least-cost roofer.

Run: python3 demos/04_search.py
"""

from covmin.config import RunConfig
from covmin.reduction import Component
from covmin.search import ComponentProblem, mocco_run

cover = {
    1: frozenset({"bl1", "bl2"}),
    2: frozenset({"bl1", "bl3"}),
    3: frozenset({"bl2", "bl4"}),
}
costs = {1: 2, 2: 3, 3: 3}
component = Component(cover=cover)

problem = ComponentProblem(component, costs)
print("fitness of {2, 3}: ", [round(v, 3) for v in problem.fitness(frozenset({2, 3}))])
print("fitness of {1, 2}: ", [round(v, 3) for v in problem.fitness(frozenset({1, 2}))])
print("exposure of {2}:   ", round(problem.exposure(problem.individual({2})), 3))

trace = []


def watch(gen, pops):
    trace.append((gen, min(r.cost for r in pops.roofers), len(pops.misers)))


result = mocco_run(component, costs,
                   RunConfig(n_size=6, generations=40), seed=11,
                   on_generation=watch)

print("\ngen  best-roofer-cost  misers")
for gen, best, misers in trace[:5] + trace[-2:]:
    print(f"{gen:>3}  {best:>16}  {misers:>6}")

print("\nselected:", sorted(result),
      "cost", sum(costs[i] for i in result),
      "(greedy ratio picking would have paid 8)")
