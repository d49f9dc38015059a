#!/usr/bin/env python3
"""Writes the n x n four-neighbour grid graph as a METIS file.

usage:
  gen_grid_metis.py <n> <out.metis> [--shuffle=SEED]

Stdlib only. Node (r, c) is METIS vertex r * n + c + 1; each row lists
the neighbours above, below, left and right, in that order. With
--shuffle=SEED the vertices are relabeled by a permutation seeded with
SEED (integer), so the numbering carries no locality; rows keep their
neighbour order. The CI smoke jobs partition the 16 x 16 and 64 x 64
grids it writes, and a shuffled 64 x 64 grid.
"""
import random
import sys


def grid_rows(n):
    """0-based neighbour lists of the row-major n x n grid."""
    idx = lambda r, c: r * n + c
    rows = []
    for r in range(n):
        for c in range(n):
            nbrs = []
            if r > 0: nbrs.append(idx(r - 1, c))
            if r < n - 1: nbrs.append(idx(r + 1, c))
            if c > 0: nbrs.append(idx(r, c - 1))
            if c < n - 1: nbrs.append(idx(r, c + 1))
            rows.append(nbrs)
    return rows


def shuffled(rows, seed):
    """The same graph with vertex u renamed label[u], rows in label order."""
    label = list(range(len(rows)))
    random.Random(seed).shuffle(label)
    out = [None] * len(rows)
    for u, nbrs in enumerate(rows):
        out[label[u]] = [label[v] for v in nbrs]
    return out


def main(argv):
    args = argv[1:]
    seed = None
    if args and args[-1].startswith("--shuffle="):
        try:
            seed = int(args.pop()[len("--shuffle="):])
        except ValueError:
            sys.exit(__doc__)
    if len(args) != 2:
        sys.exit(__doc__)
    n = int(args[0])
    rows = grid_rows(n)
    if seed is not None:
        rows = shuffled(rows, seed)
    m = sum(len(nbrs) for nbrs in rows) // 2
    with open(args[1], "w") as f:
        f.write(f"{n * n} {m}\n")
        f.write("\n".join(" ".join(str(v + 1) for v in nbrs) for nbrs in rows)
                + "\n")


if __name__ == "__main__":
    main(sys.argv)
