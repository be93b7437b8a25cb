"""Compare the single-coupling scheme against the sequential baseline.

The sequential scheme couples two meters per qudit (target projector,
then the uniform-superposition projector) and reads the element from
post-selected joint meter correlators.  Calibration makes it exactly
unbiased at any workable strength, but its shot variance blows up as
g^(-4) per coupled qudit in the weak regime versus g^(-2) for the
single-coupling scheme.
"""

import numpy as np

from dmres import (
    ElementIndex,
    ShotPolicy,
    element_variance,
    extract_element,
    plan_res,
    plan_seq,
    random_mixed_state,
    stream,
)

element = ElementIndex.create((3,), (0,), (1,))
rho = random_mixed_state(3, stream(3, "demo-3"))
policy = ShotPolicy(n_t=1.0)

print("strength   res extraction        seq extraction        var ratio (seq/res)")
for g in (0.02, 0.05, 0.2, np.pi / 4):
    p_res = plan_res(element, g)
    p_seq = plan_seq(element, g)
    v_res = extract_element(rho, p_res)
    v_seq = extract_element(rho, p_seq)
    var_res = sum(element_variance(p_res, rho, policy)) / 2
    var_seq = sum(element_variance(p_seq, rho, policy)) / 2
    print(f"g={g:6.3f}  {v_res:+.10f}  {v_seq:+.10f}  {var_seq / var_res:10.1f}")

print("\ntruth:", rho.entry(0, 1))
print("\nmeter counts: res uses", plan_res(element, 0.2).n_meters, "meter /",
      plan_res(element, 0.2).n_settings, "settings; seq uses",
      plan_seq(element, 0.2).n_meters, "meters /", plan_seq(element, 0.2).n_settings, "settings")
