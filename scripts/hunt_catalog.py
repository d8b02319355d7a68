#!/usr/bin/env python3
"""Hunt across the catalog for both profiles.

Every admissible graph gets a batch of seeded full-matching covers; any
definitive "none" from the order-constrained (B_A) solver is a candidate,
persisted for replay.  A candidate is a cover with no B_A coloring, to be
inspected, not a counterexample to the paper's DP-(0,2,2) theorem: on one
transversal, B_A neither implies (0,2,2) nor follows from it.  Expected
outcome: zero candidates.
"""

import argparse

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.hunt import hunt
from dpcharge.reporting import dump_json
from dpcharge.structure import Profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=200, help="covers per graph")
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--json", metavar="OUT", help="write the combined report")
    args = parser.parse_args()

    graphs = [(name, generate(name)) for name in DEFAULT_CATALOG]
    combined = {}
    for profile in (Profile.NO48, Profile.NO46):
        report = hunt(profile, args.k, range(args.seeds), graphs)
        combined[profile.value] = report.to_json()
        print(f"profile {profile.value}: {report.found} found, "
              f"{len(report.candidates)} candidates, "
              f"{len(report.exhausted)} exhausted, "
              f"{len(report.skipped)} graphs skipped")
        for name, reason in report.skipped:
            print(f"   skipped {name}: {reason}")
        for c in report.candidates:
            print(f"   CANDIDATE {c.graph_name} seed {c.seed} "
                  f"(replay: {c.replay_verdict})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(dump_json(combined))
        print(f"report written to {args.json}")


if __name__ == "__main__":
    main()
