#!/usr/bin/env python3
"""The benchmark's machine-speed reference: a fixed task that runs no gemcalc code.

It does, on its own data, the kind of work a ``gemcalc verify`` process does:
it starts an interpreter, imports a few standard modules, builds random
edge-coloured graphs from an LCG, counts the components of every 2-residue
with union-find, memoised per graph in a dict keyed by colour sets, and
serialises and hashes a JSON report.  It prints the report's sha256, which is
the same on every run.

The harness times it as a subprocess between the timed commands.  The host's
speed drifts over minutes, the same for both, so the ratio of a gemcalc time
to the reference time compares across runs where the times alone do not.
No change to gemcalc can change the reference's time.
"""

import hashlib
import json
from itertools import combinations

GRAPHS = 150
COLORS = 5
VERTICES = 24


def lcg(state: int):
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        yield state >> 33


def random_graph(rand) -> list[list[int]]:
    """``COLORS`` perfect matchings on ``VERTICES`` vertices, as partner lists."""
    graph = []
    for _ in range(COLORS):
        order = list(range(VERTICES))
        for i in range(VERTICES - 1, 0, -1):
            j = next(rand) % (i + 1)
            order[i], order[j] = order[j], order[i]
        partner = [0] * VERTICES
        for a, b in zip(order[::2], order[1::2]):
            partner[a], partner[b] = b, a
        graph.append(partner)
    return graph


def components(graph: list[list[int]], colors: frozenset) -> int:
    parent = list(range(VERTICES))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = VERTICES
    for c in colors:
        for v, w in enumerate(graph[c]):
            a, b = find(v), find(w)
            if a != b:
                parent[a] = b
                count -= 1
    return count


def main() -> None:
    rand = lcg(20170728)
    rows = []
    for g in range(GRAPHS):
        graph = random_graph(rand)
        memo: dict[frozenset, int] = {}
        for k in (2, 3, 4):
            for subset in combinations(range(COLORS), k):
                key = frozenset(subset)
                if key not in memo:
                    memo[key] = components(graph, key)
        rows.append({"graph": g, "residues": sorted((sorted(k), v) for k, v in memo.items())})
    text = json.dumps({"graphs": rows}, sort_keys=True)
    print(hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
