#!/usr/bin/env python3
"""Recompute the Game of Life's behavior measures and compare them with
the published reference values, report feature distances and measure
correlations for the published found rules, then recompute the
self-replicator's measures and their distances to its published ones.

The last line is JSON: the Game of Life's static and dynamic vectors, and
under "self_replicator" that rule's vectors and distances.
"""
import argparse
import json

from lifelike import (
    GOL_TARGET,
    DynamicParams,
    correlation,
    distance,
    dynamic_measure,
    feature_vector,
    gol_truth_table,
    parse_rule_spec,
    rule_profile,
    static_measure,
)

#: The published self-replicating 2D rule (lsb bit order). To watch it
#: replicate: ca simulate <this spec> --density 0.1 --out frames
SELF_REPLICATOR = (
    "moore2d:"
    "168956220003150428540506549680417619769424995409487733442556"
    "339612333081717128579374366701058219674682166161189003344417"
    "08509286446343520818184926824448"
)

# Published behavior vectors (stability, decrease, growth, chaoticity) of
# rules found by the genetic search, static then dynamic.
FOUND_RULES = {
    "found-1": ((0.0, 4.88, 33.01, 62.11), (0.0, 78.88, 9.06, 12.06)),
    "found-2": ((0.0, 2.54, 33.01, 64.45), (0.0, 84.80, 5.92, 9.28)),
    "found-3": ((0.0, 3.91, 30.47, 65.63), (0.0, 90.54, 4.00, 5.53)),
    "self-replicator": ((0.0, 3.32, 34.96, 61.72), (0.0, 90.63, 3.77, 5.61)),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--size", type=int, nargs=2, default=(100, 100))
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    params = DynamicParams(
        runs=args.runs,
        dims=tuple(args.size),
        max_steps=args.steps,
        seed=args.seed,
    )
    profile = rule_profile(gol_truth_table(), "exact")
    me = static_measure(profile)
    md = dynamic_measure(profile, params)
    features = feature_vector(me, md)

    print("Game of Life")
    print(f"  static   {me.as_tuple()}")
    print(f"  dynamic  {md.as_tuple()}")
    print(f"  corr     {correlation(me, md):+.2f}")
    print(f"  reference target {GOL_TARGET}")
    print(f"  self-distance to target {distance(features, GOL_TARGET):.2f}")
    print()
    for name, (fme, fmd) in FOUND_RULES.items():
        fme_feat = (fme[3], fme[1], fme[2], fme[0])
        fmd_feat = (fmd[3], fmd[1], fmd[2], fmd[0])
        d = distance(fme_feat + fmd_feat, GOL_TARGET)
        c = correlation(fme, fmd)
        print(f"{name}: distance to GoL target {d:.2f}, corr {c:+.2f}")

    # Under "auto" the self-replicator's exact cover exceeds its budget,
    # so this is the greedy form.
    replicator = rule_profile(parse_rule_spec(SELF_REPLICATOR), "auto")
    published_static, published_dynamic = FOUND_RULES["self-replicator"]
    rs = static_measure(replicator).as_tuple()
    rd = dynamic_measure(replicator, params).as_tuple()
    report = {
        "static": rs,
        "static_distance": distance(rs, published_static),
        "dynamic": rd,
        "dynamic_distance": distance(rd, published_dynamic),
    }
    print()
    print(f"self-replicator ({replicator.cover_mode} cover)")
    for kind, published in (("static", published_static), ("dynamic", published_dynamic)):
        rounded = tuple(round(v, 2) for v in report[kind])
        distance_ = report[f"{kind}_distance"]
        print(f"  {kind:8} {rounded}, published {published}, distance {distance_:.2f}")

    print()
    print(json.dumps({"static": me.as_tuple(), "dynamic": md.as_tuple(), "self_replicator": report}))


if __name__ == "__main__":
    main()
