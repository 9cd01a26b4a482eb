"""Tour of every solver and its bound on concrete instances.

Run: python3 demos/bounds_tour.py
"""
import quasikernel as qk
from quasikernel.digraph import members


def show(title: str, cert: qk.QkCertificate, n: int) -> None:
    bound = "-" if cert.bound is None else f"{cert.bound}"
    print(f"  {title:<22} size {cert.size:>3} of n={n:<3} bound {bound}")


def main() -> None:
    print("== extremal one-way family ==")
    for n in (1, 2):
        sd = qk.gen_dn(n)
        cert = qk.one_way_qk(sd)
        show(f"one_way_qk (n={n})", cert, sd.graph.n)
        exact = qk.min_quasi_kernel(sd).certificate
        show(f"exact minimum", exact, sd.graph.n)
        assert exact.size == n * n + 1  # the family is tight

    print("== sink-free random split digraph ==")
    sd = qk.gen_random_split(11, 6, 14, p_i_to_k=0.35, p_k_to_i=0.2, sink_free=True)
    show("two_thirds_qk", qk.two_thirds_qk(sd), sd.graph.n)

    print("== same model, with sinks: peel then solve ==")
    sd = qk.gen_random_split(12, 5, 12, p_i_to_k=0.2, p_k_to_i=0.2)
    sinks = members(sd.graph.sinks())
    cert = qk.peel_split(sd)
    print(f"  sinks {sinks} stay in the answer: {cert.vertices.issuperset(sinks)}")
    show("peel_split", cert, sd.graph.n)

    print("== complete split biorientation: exact minimum in poly time ==")
    sd = qk.gen_random_complete_split(7, 4, 9, p_digon=0.2, sink_free=True)
    cert = qk.complete_split_min_qk(sd)
    show("complete_split_min_qk", cert, sd.graph.n)
    assert cert.size == qk.min_quasi_kernel(sd).certificate.size

    print("== any digraph at all: the rooted peeling construction ==")
    d = qk.Digraph(7, [(0, 1), (1, 2), (2, 0), (3, 1), (4, 5), (5, 6), (6, 4)])
    q = qk.quasi_kernel_rooted(d, 3)
    print(f"  rooted at 3 -> {sorted(q)}; 3 in it or points into it: "
          f"{3 in q or bool(d.out_masks[3] & d.mask_of(q))}")

    print("== every certificate carries witnesses ==")
    cert = qk.two_thirds_qk(qk.gen_dn(1))
    for v, path in sorted(cert.witnesses.items()):
        print(f"  vertex {v} reaches the set via {' -> '.join(map(str, path))}")


if __name__ == "__main__":
    main()
