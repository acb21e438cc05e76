"""Planted-corpus generator for the covmin benchmark.

A corpus is generated from a planted block structure whose cheapest cover is
known in advance:

- *necessary* inputs each cover private blocks that no other input reaches;
- *cycles*: in a cycle of length L, member k covers cycle blocks k and
  k + 1 (mod L), so every cycle block is covered twice and the cheapest cover
  of the cycle is a minimum-cost edge cover of a ring, found here by brute
  force over all 2**L member subsets;
- *duplicates* repeat a cycle member's blocks at the same cost, and
  *dominated* copies repeat them at a higher cost, so reduction has work.

A block is one (page template, URL family) pair. Every page of a template
carries the template's content tokens, the boilerplate that every page of the
corpus shares, and noise tokens drawn from a small pool, so pages recur. URL
families of one template differ in one path word; a share of the families is
reached by POST with a text and an int parameter.

Everything is a function of (spec, seed). The generator knows nothing about
covmin's clustering, reduction or search: the cover map, block count and
optimum it returns are the planted ones.
"""

from __future__ import annotations

import json
import math
import random
import string
from dataclasses import dataclass

# Cycle member costs lie in [_CYCLE_COST_LO, 2 * _CYCLE_COST_LO - 1], so two
# neighbours always cost more than the member between them and no cycle
# member is locally dominated.
_CYCLE_COST_LO = 20
_CYCLE_COST_HI = 2 * _CYCLE_COST_LO - 1
_NOISE_POOL = 4
_LETTERS = string.ascii_lowercase


@dataclass(frozen=True)
class CorpusSpec:
    inputs: int                    # total inputs; the rest after cycles and copies are necessary
    cycles: int = 0                # number of planted overlap cycles
    cycle_length: int = 0          # inputs (and blocks) per cycle
    duplicates: int = 0            # same blocks and cost as a cycle member
    dominated: int = 0             # same blocks as a cycle member, higher cost
    blocks_per_necessary: int = 1  # private blocks per necessary input
    families: int = 1              # URL families per page template
    post_share: float = 0.0        # share of URL families reached by POST with params
    pages_per_template: int = 3    # pages rendered from each template, at least
    content_tokens: int = 12       # template-specific tokens per page
    boilerplate_tokens: int = 0    # tokens shared by every page of the corpus
    noise_tokens: int = 1          # tokens per page drawn from a small shared pool

    @property
    def necessary(self) -> int:
        return self.inputs - self.cycles * self.cycle_length - self.duplicates - self.dominated

    def validate(self) -> None:
        if self.necessary < 0:
            raise ValueError("cycles and copies need more inputs than the spec has")
        if self.cycles and self.cycle_length < 3:
            raise ValueError("a cycle needs at least three members")
        if (self.duplicates or self.dominated) and not self.cycles:
            raise ValueError("copies are made of cycle members; plant a cycle")
        if self.families < 1 or self.pages_per_template < 1 or self.content_tokens < 1:
            raise ValueError("families, pages per template and content tokens must be positive")
        if not 0.0 <= self.post_share <= 1.0:
            raise ValueError("post_share must lie in [0, 1]")


@dataclass(frozen=True)
class Corpus:
    payload: dict                       # the dataset in covmin's on-disk JSON schema
    cover: dict[int, frozenset[int]]    # input id -> planted blocks it covers
    blocks: int                         # planted block count
    optimum: int                        # cost of the cheapest full cover
    vulnerabilities: tuple[tuple[str, tuple[frozenset[int], ...]], ...]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh)


def cycle_optimum(costs) -> tuple[int, int, int]:
    """Brute force over every member subset of a ring in which member k covers
    blocks k and k + 1. Returns (optimum cost, number of optimal subsets, the
    lowest optimal subset as a bit mask)."""
    n = len(costs)
    full = (1 << n) - 1
    total = [0] * (1 << n)
    best, count, best_mask = None, 0, 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        total[mask] = total[mask ^ low] + costs[low.bit_length() - 1]
        covered = mask | ((mask << 1) & full) | (mask >> (n - 1))
        if covered != full:
            continue
        if best is None or total[mask] < best:
            best, count, best_mask = total[mask], 1, mask
        elif total[mask] == best:
            count += 1
    return best, count, best_mask


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(lo, hi)))


def _split_cost(rng: random.Random, cost: int) -> dict[str, int]:
    first = rng.randint(1, cost - 1) if cost > 1 else cost
    return {"mr1": first, "mr2": cost - first}


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    spec.validate()
    rng = random.Random(seed)

    # Planted structure over role indices; ids are assigned at the end.
    cover: list[frozenset[int]] = []
    costs: list[int] = []
    next_block = 0
    for _ in range(spec.necessary):
        blocks = range(next_block, next_block + spec.blocks_per_necessary)
        next_block += spec.blocks_per_necessary
        cover.append(frozenset(blocks))
        costs.append(rng.randint(3, 9))
    optimum = sum(costs)

    cycle_members: list[list[int]] = []
    optimal_members: list[list[int]] = []
    for _ in range(spec.cycles):
        first_block = next_block
        next_block += spec.cycle_length
        # Redraw until the optimum is unique, so the planted vulnerabilities
        # on optimal members are detected exactly when the search is optimal.
        while True:
            ring = [rng.randint(_CYCLE_COST_LO, _CYCLE_COST_HI) for _ in range(spec.cycle_length)]
            best, count, mask = cycle_optimum(ring)
            if count == 1:
                break
        optimum += best
        members = []
        for k, cost in enumerate(ring):
            members.append(len(cover))
            cover.append(frozenset({first_block + k,
                                    first_block + (k + 1) % spec.cycle_length}))
            costs.append(cost)
        cycle_members.append(members)
        optimal_members.append([members[k] for k in range(spec.cycle_length) if mask >> k & 1])

    # Optimal members carrying a vulnerability get no copies: a duplicate with
    # a lower id would legitimately replace them.
    flagged = {rng.choice(opt) for opt in optimal_members}
    copy_targets = [m for members in cycle_members for m in members if m not in flagged]
    dominated_copies = []
    for j in range(spec.duplicates + spec.dominated):
        original = rng.choice(copy_targets)
        cover.append(cover[original])
        if j < spec.duplicates:
            costs.append(costs[original])
        else:
            dominated_copies.append(len(costs))
            costs.append(costs[original] + rng.randint(1, 5))
    blocks = next_block

    ids = list(range(1, len(cover) + 1))
    rng.shuffle(ids)

    vulnerabilities = []
    for k in range(min(2, spec.necessary)):
        vulnerabilities.append((f"v-necessary-{k}", (frozenset({ids[k]}),)))
    for c, opt in enumerate(optimal_members):
        member = next(m for m in opt if m in flagged)
        vulnerabilities.append((f"v-cycle-{c}", (frozenset({ids[member]}),)))
    if dominated_copies:
        vulnerabilities.append(("v-dominated", (frozenset({ids[dominated_copies[0]]}),)))

    payload = {
        "inputs": _render_inputs(spec, rng, cover, costs, ids, blocks),
        "vulnerabilities": [
            {"id": vid, "detecting_groups": [sorted(g) for g in groups]}
            for vid, groups in vulnerabilities
        ],
    }
    return Corpus(
        payload=payload,
        cover={ids[r]: cover[r] for r in range(len(cover))},
        blocks=blocks,
        optimum=optimum,
        vulnerabilities=tuple(vulnerabilities),
    )


def _render_inputs(spec, rng, cover, costs, ids, blocks) -> list[dict]:
    """Actions and pages for every input: each input visits each of its
    blocks at least once, and extra visits are dealt round-robin among a
    block's covering inputs until its template has its page count."""
    host = _word(rng, 4, 8)
    boilerplate = [f"{_word(rng, 2, 4)}b{j}x" for j in range(spec.boilerplate_tokens)]
    head, tail = boilerplate[: len(boilerplate) // 2], boilerplate[len(boilerplate) // 2:]
    noise = [f"{_word(rng, 2, 4)}n{j}x" for j in range(_NOISE_POOL)]
    templates = -(-blocks // spec.families)
    content = [
        " ".join(f"{_word(rng, 1, 3)}t{t}k{j}x" for j in range(spec.content_tokens))
        for t in range(templates)
    ]
    per_block = max(1, math.ceil(spec.pages_per_template / spec.families))

    covering: dict[int, list[int]] = {}
    for role, blocks_of in enumerate(cover):
        for b in blocks_of:
            covering.setdefault(b, []).append(role)
    visits: list[list[int]] = [[] for _ in cover]
    for b in range(blocks):
        roles = covering[b]
        for v in range(max(per_block, len(roles))):
            visits[roles[v % len(roles)]].append(b)

    records = []
    for role in sorted(range(len(cover)), key=lambda r: ids[r]):
        actions, outputs = [], []
        for b in sorted(visits[role]):
            t, f = divmod(b, spec.families)
            post = math.floor((b + 1) * spec.post_share) > math.floor(b * spec.post_share)
            params = []
            if post:
                params = [
                    {"name": "q", "type": "str", "value": _word(rng, 3, 8)},
                    {"name": "n", "type": "int", "value": rng.randint(0, 99)},
                ]
            actions.append({
                "method": "POST" if post else "GET",
                "url": f"http://{host}/f{f}/t{t}",
                "params": params,
            })
            page_noise = " ".join(rng.choice(noise) for _ in range(spec.noise_tokens))
            outputs.append(
                f"<html><head><title>{' '.join(head)}</title></head><body>"
                f"<div class=\"main\">{content[t]} {page_noise}</div>"
                f"<footer>{' '.join(tail)}</footer></body></html>"
            )
        records.append({
            "id": ids[role],
            "actions": actions,
            "outputs": outputs,
            "mr_action_counts": _split_cost(rng, costs[role]),
        })
    return records
