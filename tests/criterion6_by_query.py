"""Acceptance criterion 6 per query: which queries decide its two means.

For each of the 60 queries of the acceptance corpus it prints the
actual cost of the plan the optimizer picks with nested loop alone and
with nested loop or hash join, the worst nested-loop ordering and its
cost, and the query's share of the gap between the two means: its
nested-loop ratio minus its combined ratio, over 60. The shares sum to
the gap; a positive share is a query whose combined plan is the
cheaper. Rows are sorted by the size of the share. The last line gives
both means as the `ACCEPTANCE 6` line prints them, and to four digits.

Run this file as a script: `python tests/criterion6_by_query.py`.
"""

from dobquery import default_strategies, run_ratio

from test_acceptance import CORPUS_SAMPLING, NLJ, acceptance_corpus


def per_query_rows(corpus) -> tuple[list[tuple], float, float]:
    """(index, query id, nested-loop plan cost, combined plan cost, worst
    nested-loop ordering, its cost, share) per query, and both means."""
    bases, queries, catalogs = corpus
    nlj = run_ratio(bases, queries, CORPUS_SAMPLING, NLJ, catalogs=catalogs)
    combined = run_ratio(
        bases, queries, CORPUS_SAMPLING, default_strategies(),
        catalogs=catalogs,
    )
    nlj_ratios = [r.opt_worst_ratio for r in nlj.ratios]
    combined_ratios = [
        c.optimal_cost / n.worst_cost if n.worst_cost else 1.0
        for c, n in zip(combined.ratios, nlj.ratios)
    ]
    count = len(nlj_ratios)
    rows = []
    for i, (n, c) in enumerate(zip(nlj.ratios, combined.ratios)):
        worst = next(
            r.order for r in nlj.rows
            if r.query_id == n.query_id and r.actual_cost == n.worst_cost
        )
        share = (nlj_ratios[i] - combined_ratios[i]) / count
        rows.append((i, n.query_id, n.optimal_cost, c.optimal_cost, worst,
                     n.worst_cost, share))
    rows.sort(key=lambda row: (-abs(row[-1]), row[0]))
    return rows, sum(nlj_ratios) / count, sum(combined_ratios) / count


def main() -> None:
    rows, nlj_mean, combined_mean = per_query_rows(acceptance_corpus())
    print(f"{'#':>3}  {'query':<9} {'nlj plan':>9} {'nlj|hash':>9}"
          f" {'worst':>7}  {'worst nlj ordering':<18} {'share':>8}")
    for i, query_id, nlj_cost, combined_cost, worst, worst_cost, share in rows:
        order = " ".join(map(str, worst))
        print(f"{i:>3}  {query_id:<9} {nlj_cost:>9,} {combined_cost:>9,}"
              f" {worst_cost:>7,}  {order:<18} {share:>+8.4f}")
    print(f"nested-loop-or-hash mean ratio {combined_mean:.3f} <= nested-loop"
          f" mean {nlj_mean:.3f} ({combined_mean:.4f} and {nlj_mean:.4f},"
          f" gap {nlj_mean - combined_mean:+.4f})")


if __name__ == "__main__":
    main()
