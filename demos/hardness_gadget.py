"""The dominating-set gadget and its solution maps, end to end.

Finding a minimum quasi-kernel in a split digraph is as hard as directed
domination: the gadget host has a quasi-kernel of size q+1 exactly when
the source digraph has a dominating set of size q.

Run: python3 demos/hardness_gadget.py
"""
import quasikernel as qk


def main() -> None:
    # source: a 4-vertex digraph whose minimum dominating set has size 2
    source = qk.Digraph(4, [(0, 1), (2, 1), (2, 3), (3, 2)])
    dom = qk.min_dominating_set(source)
    print(f"source minimum dominating set: {sorted(dom)} (size {len(dom)})")

    q = len(dom)
    art = qk.reduce_dds_to_qk(source, q)
    host = art.host
    print(f"gadget host: n={host.graph.n}, arcs={len(host.graph.arcs)}, b={art.b}")
    print(f"  layout: apex '{art.names[0]}', then {art.source_n} s1, {art.b} s2, "
          f"{art.source_m} k1, {art.b} k2 vertices")

    # forward map: dominating set -> quasi-kernel of size q+1
    lifted = qk.lift_domset(art, dom)
    print(f"lifted quasi-kernel: {sorted(lifted)} "
          f"({', '.join(art.names[v] for v in sorted(lifted))})")

    # the host has no smaller quasi-kernel: q alone is not enough
    at_q = qk.has_qk_of_size_at_most(host, q)
    at_q1 = qk.has_qk_of_size_at_most(host, q + 1)
    print(f"host has quasi-kernel of size {q}? {at_q}")
    print(f"host has quasi-kernel of size {q + 1}? {at_q1}")
    assert not at_q and at_q1

    # backward map: any small enough quasi-kernel projects to a dominating set
    found = qk.min_quasi_kernel(host, budget=q + 1).certificate
    assert found.size == q + 1
    projected = qk.project_qk(art, found.vertices)
    dominates = qk.is_dominating(source, projected)
    print(f"projected dominating set: {sorted(projected)} (dominates: {dominates})")
    assert dominates


if __name__ == "__main__":
    main()
