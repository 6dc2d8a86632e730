"""Table 1: heuristic comparison over the full data set.

Regenerates the paper's Table 1 -- proportions of scenarios where each
heuristic achieves the best (or within 5% of best) memory and makespan,
plus average deviations -- over the synthetic data set and the paper's
processor sweep. The benchmark time is the cost of the whole campaign.
"""

from repro.analysis import compute_table1_stats, render_table1, run_campaign, table1_csv
from .conftest import paper_grid, save_artifact


def test_table1(benchmark, dataset, artifact_dir):
    def campaign():
        records = run_campaign(dataset, paper_grid())
        return compute_table1_stats(records)

    stats = benchmark.pedantic(campaign, rounds=1, iterations=1)
    text = render_table1(stats)
    save_artifact(artifact_dir, "table1.txt", text)
    save_artifact(artifact_dir, "table1.csv", table1_csv(stats))

    by_name = {s.heuristic: s for s in stats}
    # The paper's qualitative findings must hold on our data set:
    # 1. ParSubtrees leads the memory objective...
    assert by_name["ParSubtrees"].best_memory == max(s.best_memory for s in stats)
    # 2. ...ParDeepestFirst the makespan objective (within ~0.1% of best).
    assert by_name["ParDeepestFirst"].best_makespan == max(
        s.best_makespan for s in stats
    )
    assert by_name["ParDeepestFirst"].avg_dev_best_makespan <= 1.0
    # 3. the memory ordering of the four heuristics is the paper's
    mem_order = sorted(stats, key=lambda s: s.avg_dev_seq_memory)
    assert mem_order[0].heuristic in ("ParSubtrees", "ParSubtreesOptim")
    assert mem_order[-1].heuristic == "ParDeepestFirst"
