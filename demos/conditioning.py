"""Conditioning demo: how the per-step matrix responds to the time policy.

With tau = h the condition number grows linearly in M (the diffusion
stiffness dominates); with tau = h^2 it stays bounded near 1, which is
exactly the regime where the adaptive driver hands the system to plain
CG.  A third sweep shows that once the diffusion coefficient K2 is very
large, conditioning stops depending on it.

Run from the repository root:  python3 demos/conditioning.py
"""

from mtfade import (FractionalOrders, TimePolicy, kappa_ratio_table,
                    make_example_1, make_example_2, make_mesh, spectrum,
                    step_matrix)


def sweep(spec, policy, sizes):
    print(f"{'M':>5} {'lambda_min':>12} {'lambda_max':>12} "
          f"{'kappa':>10} {'ratio':>7}")
    for r in kappa_ratio_table(spec, lambda m: make_mesh(spec, m, policy),
                               sizes):
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        print(f"{r['M']:>5} {r['lambda_min']:>12.4E} "
              f"{r['lambda_max']:>12.4E} {r['kappa']:>10.4E} {ratio:>7}")


def main():
    spec = make_example_1(FractionalOrders((0.9, 0.4), (1.0, 1.0), 0.3, 0.8))

    print("tau = h: kappa grows like M (ratio -> 1/2 x size ratio)")
    sweep(spec, TimePolicy.TAU_EQ_H, [64, 128, 256, 512])

    print("\ntau = h^2: kappa bounded and shrinking toward 1")
    sweep(spec, TimePolicy.TAU_EQ_H2, [32, 64, 128, 256])

    print("\nLarge-K2 sweep at M = 256, tau = h: kappa saturates")
    print(f"{'K2':>10} {'kappa':>12}")
    for k2 in (3e2, 3e3, 3e4, 3e5):
        spec2 = make_example_2(
            FractionalOrders((0.7, 0.4), (1.0, 1.0), 0.3, 0.85), 5.0, k2)
        mesh = make_mesh(spec2, 256, TimePolicy.TAU_EQ_H)
        rep = spectrum(step_matrix(spec2, mesh, 1).a_full)
        print(f"{k2:>10.0E} {rep.kappa:>12.4E}")


if __name__ == "__main__":
    main()
