#!/usr/bin/env python3
"""Run both discharging rule sets over the whole catalog and print a
charge summary per graph: the -8 identity, conservation, and which
elements end negative together with the reducible configurations and
hypothesis failures that explain them."""

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.discharge import RuleSet, audit, run_rules
from dpcharge.reporting import frac_str


def main() -> None:
    for name in DEFAULT_CATALOG:
        graph = generate(name)
        print(f"== {name}: V={graph.vertex_count} E={graph.edge_count} "
              f"F={graph.face_count}")
        for ruleset in (RuleSet.RS48, RuleSet.RS46):
            ledger = run_rules(graph, ruleset)
            report = audit(ledger)
            status = "all >= 0" if not report.negatives else \
                f"{len(report.negatives)} negative element(s)"
            print(f"   {ruleset.value}: sum {frac_str(report.sum_initial)} "
                  f"(conserved: {report.conservation_ok}); {status}; "
                  f"{len(ledger.transfers)} transfers")
            for neg in report.negatives[:3]:
                why = neg.nearby_reducible[0].kind if neg.nearby_reducible else \
                    (neg.hypothesis_notes[0] if neg.hypothesis_notes else "?")
                print(f"      {neg.key} = {frac_str(neg.final)}  ({why})")
            if len(report.negatives) > 3:
                print(f"      ... and {len(report.negatives) - 3} more")


if __name__ == "__main__":
    main()
