"""Second-order spectrum of the nearly resonant ion and its anticrossings.

Near resonance the bare levels |n-1, e> and |n, g> are almost
degenerate; the exchange coupling hybridizes each pair into a doublet
split by 2 lambda nu sqrt(n) at the crossing.  Second-order terms push
the crossing away from zero detuning mismatch by -lambda^2 nu n / 2,
which the gap scan below locates numerically from exact eigenvalues.
"""

from iontrap import SpaceConfig, ModelParams
from iontrap.experiments import EXPERIMENTS, Options


def main():
    space = SpaceConfig(n_max=40, interior_margin=10)
    p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.05)
    n_show = 5

    # exact levels are paired with each rung by overlap; an ambiguous
    # pairing stops the experiment with a diagnostic
    (table,) = EXPERIMENTS["spectrum"](
        p, space, Options({"n_levels": str(n_show)}), map)
    cols, meta = table.columns, table.metadata
    unit = p.lam ** 3 * p.nu
    print(f"levels at resonance, lambda = {p.lam} "
          f"(errors in units of lambda^3 nu = {unit:.2e}):\n")
    print(f"  {'level':>10}  {'formula':>12}  {'exact':>12}  {'err/unit':>9}")
    print(f"  {'E0':>10}  {meta['E0']:12.6f}  {meta['E0_exact']:12.6f}  "
          f"{meta['err_E0'] / unit:9.3f}")
    for k, n in enumerate(cols["n"]):
        for sign, side in (("-", "minus"), ("+", "plus")):
            print(f"  {f'E{n}{sign}':>10}  {cols[f'E_{side}'][k]:12.6f}  "
                  f"{cols[f'E_{side}_exact'][k]:12.6f}  "
                  f"{cols[f'err_{side}'][k] / unit:9.3f}")

    print("\nanticrossing scan (gap between the n-th doublet levels while "
          "sweeping\nthe detuning mismatch; argmin from parabolic refinement):\n")
    # the experiment scans the default window around each predicted shift;
    # a minimum at the window's edge or an unresolved window is a diagnostic
    base = ModelParams.from_balanced(1.0, 1.0, 0.02, 0.05)
    print(f"  {'n':>3}  {'argmin':>12}  {'-lam^2 nu n/2':>14}  "
          f"{'min gap':>10}  {'2 lam nu sqrt(n)':>16}")
    for table in EXPERIMENTS["anticrossing"](base, space, Options({}), map):
        meta = table.metadata
        print(f"  {meta['n']:3d}  {meta['argmin']:12.3e}  "
              f"{meta['predicted_argmin']:14.3e}  {meta['min_gap']:10.6f}  "
              f"{meta['exchange_splitting']:16.6f}")
    print("\nthe minimum-gap location tracks the second-order shift and the "
          "gap\nitself is the first-order exchange splitting.")


if __name__ == "__main__":
    main()
