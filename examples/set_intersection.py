"""k-set intersection: the hardness frame of §1.2, executable.

Pure keyword search *is* k-set intersection in disguise.  This example
builds an adversarial family of sets — pairwise almost-disjoint blocks with
a small planted common core — where the naive hash index must scan a whole
set per query, and shows the two sub-linear indexes of this library:

* the direct Cohen-Porat-style large/small recursion (KSetIndex, §3.5), and
* the §1.2 reduction that answers k-SI with a 1-D ORP-KW index.

Run with:  python examples/set_intersection.py
"""

from repro import CostCounter
from repro.reporting import print_table
from repro.ksi import KSetIndex, NaiveKSI
from repro.ksi.ksi_index import OrpBackedKsi
from repro.workloads.generators import adversarial_ksi_sets


def main() -> None:
    # 30 sets of 2,000 elements each; every pair intersects in exactly the
    # 32 planted elements.
    sets = adversarial_ksi_sets(num_sets=30, set_size=2000, planted=32, seed=1)
    naive = NaiveKSI(sets)
    direct = KSetIndex(sets, k=2)
    backed = OrpBackedKsi(sets, k=2)
    n = naive.input_size
    print(f"k-SI instance: m = {len(sets)} sets, N = {n}, planted OUT = 32")
    print(f"theory bound  sqrt(N)(1 + sqrt(OUT)) = {n**0.5 * (1 + 32**0.5):.0f}\n")

    rows = []
    answers = {}
    for name, index in (
        ("naive hashing (Θ(N) per query)", naive),
        ("KSetIndex (Cohen-Porat style)", direct),
        ("OrpBackedKsi (§1.2 reduction)", backed),
    ):
        counter = CostCounter()
        result = index.report([3, 17], counter)
        answers[name] = result
        rows.append(
            {"index": name, "|S3 ∩ S17|": len(result), "cost_units": counter.total}
        )
    assert len({tuple(a) for a in answers.values()}) == 1, "indexes disagree!"
    print_table(rows, title="one reporting query, three indexes:")

    # Emptiness: the budgeted trick of the paper's footnote 4.
    empty_sets = adversarial_ksi_sets(num_sets=30, set_size=2000, planted=0, seed=2)
    direct_empty = KSetIndex(empty_sets, k=2)
    counter = CostCounter()
    verdict = direct_empty.is_empty([0, 1], counter)
    print(
        f"emptiness query on the disjoint variant: empty={verdict}, "
        f"cost={counter.total} units (naive would pay {len(empty_sets[0])})"
    )


if __name__ == "__main__":
    main()
