#!/usr/bin/env python3
"""Render the evolution of the published self-replicating 2D rule.

Writes binary frames and M-field images so replication can be confirmed
visually (around step 91 from a suitable seed). The bit-significance
convention of the published number is not fixed by the source, so both
variants can be rendered with --bit-order.
"""
import argparse
from pathlib import Path

import numpy as np

from lifelike import evolve, parse_rule_spec, random_lattice, render_ppm, rule_profile
from lifelike.simulator import load_pattern

SELF_REPLICATOR = (
    "moore2d:"
    "168956220003150428540506549680417619769424995409487733442556"
    "339612333081717128579374366701058219674682166161189003344417"
    "08509286446343520818184926824448"
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bit-order", choices=("lsb", "msb"), default="lsb")
    parser.add_argument("--size", type=int, nargs=2, default=(100, 100))
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--density", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seed-pattern", help="0/1 grid file used as the initial lattice")
    parser.add_argument("--every", type=int, default=1, help="write every Nth frame")
    parser.add_argument("--out", default="self-replicator")
    args = parser.parse_args()

    tt = parse_rule_spec(SELF_REPLICATOR, args.bit_order)
    if args.seed_pattern:
        lattice = load_pattern(args.seed_pattern)
    else:
        rng = np.random.default_rng(args.seed)
        lattice = random_lattice(tuple(args.size), args.density, rng)

    history = evolve(lattice, rule_profile(tt), args.steps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for t in range(0, len(history.frames), args.every):
        render_ppm(history.frames[t], out / f"frame-{t:04d}.ppm", "binary")
        if t >= 1:
            render_ppm(history.mfields[t - 1], out / f"mfield-{t:04d}.ppm", "mfield")
    print(f"wrote frames 0..{args.steps} (every {args.every}) to {out}/")


if __name__ == "__main__":
    main()
