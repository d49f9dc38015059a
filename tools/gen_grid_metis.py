#!/usr/bin/env python3
"""Writes the n x n four-neighbour grid graph as a METIS file.

usage:
  gen_grid_metis.py <n> <out.metis>

Stdlib only. Node (r, c) is METIS vertex r * n + c + 1; each row lists
the neighbours above, below, left and right, in that order. The CI smoke
jobs partition the 16 x 16 and 64 x 64 grids it writes.
"""
import sys


def grid_lines(n):
    idx = lambda r, c: r * n + c + 1
    lines = []
    for r in range(n):
        for c in range(n):
            nbrs = []
            if r > 0: nbrs.append(idx(r - 1, c))
            if r < n - 1: nbrs.append(idx(r + 1, c))
            if c > 0: nbrs.append(idx(r, c - 1))
            if c < n - 1: nbrs.append(idx(r, c + 1))
            lines.append(" ".join(map(str, nbrs)))
    return lines


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    n = int(argv[1])
    lines = grid_lines(n)
    m = sum(len(l.split()) for l in lines) // 2
    with open(argv[2], "w") as f:
        f.write(f"{n * n} {m}\n")
        f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv)
