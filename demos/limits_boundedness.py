"""Why the balanced frame exists: bounded couplings at any drive power.

In the rotating frame the drive enters through Omega_R, which grows
without bound with laser intensity, so expanding in it eventually fails.
The balanced transform T produces couplings lambda and eta_breve that
stay bounded (|lambda| <= eta/2, |eta_breve| <= eta) over the whole
intensity axis.  T itself interpolates between the identity at weak
drive and a fixed spin-flip-plus-displacement at strong drive.
"""

import dataclasses

import numpy as np

from iontrap import SpaceConfig, ModelParams
from iontrap.experiments import EXPERIMENTS, Options


def main():
    space = SpaceConfig(n_max=40, interior_margin=10)
    eta = 0.1
    base = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=1.0, eta=eta)

    print("coupling sweep over six decades of Rabi frequency "
          f"(eta = {eta}, delta = {base.delta:g}):\n")
    print(f"  {'Omega_R':>10}  {'lambda':>10}  {'eta_breve':>10}")
    worst_lam, worst_eb = 0.0, 0.0
    for w in np.logspace(-3, 3, 121):
        p = dataclasses.replace(base, Omega_R=float(w))
        worst_lam = max(worst_lam, abs(p.lam))
        worst_eb = max(worst_eb, abs(p.eta_breve))
    for w in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        p = dataclasses.replace(base, Omega_R=w)
        print(f"  {w:10.0e}  {p.lam:10.6f}  {p.eta_breve:10.6f}")
    print(f"\n  max |lambda|    = {worst_lam:.15f}  (bound eta/2 = {eta / 2})")
    print(f"  max |eta_breve| = {worst_eb:.15f}  (bound eta   = {eta})")

    print("\nthe transform between the two frames, by dimensionless "
          "detuning\nDelta = delta / Omega_R:\n")
    print(f"  {'Delta':>10}  {'|T - 1|':>12}  {'|T - T_strong|':>14}")
    # the experiment sets each drive Omega_R = |delta| / Delta itself
    (table,) = EXPERIMENTS["limits"](
        base, space, Options({"delta_grid": "1e-6, 1e-3, 1, 1e3, 1e6"}), map)
    cols = table.columns
    for big_delta, d_one, d_strong in zip(
            cols["Delta"], cols["dist_identity"], cols["dist_strong_field"]):
        print(f"  {big_delta:10.0e}  {d_one:12.3e}  {d_strong:14.3e}")
    print("\nweak drive (large Delta): T melts into the identity; strong "
          "drive\n(small Delta): T freezes into the spin-flip transform.")


if __name__ == "__main__":
    main()
