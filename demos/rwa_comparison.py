"""How much does the first correction beyond the rotating wave buy?

The rotating-wave evolutor keeps only the co-rotating exchange term and
is wrong at first order in lambda.  The first-order evolutor
exp(-i Z1) exp(-i (H0 + C1) t) exp(i Z1) adds the first-order generator
Z1 and constant C1, which repairs the first order: its error falls as
lambda^2 while the rotating-wave error falls as lambda, so the ratio of
the two grows like 1/lambda.

Both evolutors also miss the second-order secular phase, about
lambda^2 nu n t on Fock level n.  On the measured levels n <= 30 it
overtakes the rotating wave's first-order defect, of size
lambda |sin nu t| sqrt(n), above lambda ~ 0.009 at nu t = 3, so the
errors are taken at nu t = 3 on lambda = 0.0005 ... 0.004, the window of
acceptance criterion 4.
"""

from iontrap import (
    SpaceConfig, ModelParams, bh,
    rwa_evolutor_fn, first_order_evolutor_fn,
    exact_propagator_fn, interior_distance, fit_order,
)


def main():
    space = SpaceConfig(n_max=40, interior_margin=10)
    t = 3.0
    lams = (0.0005, 0.001, 0.002, 0.004)

    def errors(lam):
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
        ref = exact_propagator_fn(bh(p, space))(t)
        return (interior_distance(rwa_evolutor_fn(p, space)(t), ref),
                interior_distance(first_order_evolutor_fn(p, space)(t), ref))

    print(f"errors against the exact balanced propagator at nu t = {t} "
          f"(interior norm):\n")
    print(f"  {'lambda':>8}  {'rotating wave':>14}  {'first order':>14}  "
          f"{'ratio':>7}")
    table = {lam: errors(lam) for lam in lams}
    for lam, (e_rwa, e_1) in table.items():
        print(f"  {lam:8.4f}  {e_rwa:14.3e}  {e_1:14.3e}  {e_rwa / e_1:7.2f}")

    fit_rwa = fit_order(lambda lam: table[lam][0], lams)
    fit_e1 = fit_order(lambda lam: table[lam][1], lams)
    print(f"\nlog-log slopes: rotating wave {fit_rwa.slope:.2f}, "
          f"first order {fit_e1.slope:.2f}")
    print("the rotating-wave error is first order in lambda; one generator "
          "order\nremoves it and the error ratio grows as the drive weakens.")


if __name__ == "__main__":
    main()
