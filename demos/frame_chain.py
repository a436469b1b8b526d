"""Walk the exact frame chain from the lab to the balanced frame.

The lab Hamiltonian of a driven trapped ion oscillates at the laser
frequency.  Moving to the laser frame removes the time dependence; the
balanced transform then trades the unbounded drive coupling Omega_R for
the bounded pair (lambda, eta_breve).  Every step is a conjugation, so
the chained propagator is exact: the only error in comparing it to a
brute-force time-ordered integration of the lab Hamiltonian is the
integrator's own step error.
"""

import numpy as np

from iontrap import (
    SpaceConfig, ModelParams, identity,
    ith_fn, rfh, bh, frame_rotation, t_delta,
    op_norm, interior_distance,
    frame_chain_fn, time_ordered_sweep,
)


def main():
    space = SpaceConfig(n_max=40, interior_margin=10)
    p = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25, eta=0.1)
    print(f"drive: Omega_R={p.Omega_R}, detuning delta={p.delta:.3f}, "
          f"eta={p.eta}")
    print(f"balanced couplings: lambda={p.lam:.6f}, eta_breve={p.eta_breve:.6f}, "
          f"delta_breve={p.delta_breve:.6f}\n")

    h_lab = ith_fn(p, space)
    h_rot = rfh(p, space)

    # conjugation identities; the closed-form series route makes the
    # comparison non-circular
    td = t_delta(p, space)
    h_series = bh(p, space, route="closed_form")
    print("balanced frame is a conjugation of the rotating frame:")
    print(f"  |BH(series) - T RFH T^dag| (interior) = "
          f"{interior_distance(h_series, td @ h_rot @ td.dag):.3e}")
    print(f"  |T T^dag - 1| (interior) = "
          f"{interior_distance(td @ td.dag, identity(space)):.3e}")
    r = frame_rotation(0.7, p, space)
    print(f"  |R(t) R(t)^dag - 1| = {op_norm(r @ r.dag - identity(space)):.3e}")

    print("\nchain propagator vs time-ordered integration of the lab "
          "Hamiltonian\n(interior norm; one integrator sweep through all "
          "times: two-point Gauss\ncommutator step, 200 steps per unit):")
    print(f"  {'nu t':>6}  {'difference':>12}")
    times = (0.5, 1.0, 2.0, 4.0)
    chain = frame_chain_fn(p, space)
    stepped = time_ordered_sweep(h_lab, times, space,
                                 steps_per_unit=200, order=4)
    for t, u in zip(times, stepped):
        print(f"  {t:6.1f}  {interior_distance(chain(t), u):12.3e}")
    print("\nno perturbation theory anywhere above; this is the exact "
          "reference\nevery approximation in the package is measured against.")


if __name__ == "__main__":
    main()
