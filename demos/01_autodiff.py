"""Tour of the reverse-mode tensor core.

Builds a small expression graph, runs backward, and cross-checks the
analytic gradients against central differences.
"""

import numpy as np

from ucam import tensor as tc

rng = np.random.default_rng(0)

# forward: a couple of matmuls with a swish nonlinearity in between
x = tc.parameter(rng.standard_normal((4, 6)))
w1 = tc.parameter(rng.standard_normal((6, 5)) * 0.4)
w2 = tc.parameter(rng.standard_normal((5, 3)) * 0.4)

h = tc.swish(tc.matmul(x, w1))
y = tc.matmul(h, w2)
loss = tc.sum_all(tc.mul(y, y))
print(f"loss = {loss.item():.6f}")

tc.backward(loss)
print(f"dL/dw1 has shape {w1.grad.shape}, "
      f"|grad| max {np.abs(w1.grad).max():.4f}")

# tc.backward raises GraphError while a leaf still holds a gradient, so
# clear them before the next backward
tc.zero_grad([("x", x), ("w1", w1), ("w2", w2)])

# the same graph as a closure, checked against finite differences
def build(_):
    h = tc.swish(tc.matmul(x, w1))
    y = tc.matmul(h, w2)
    return tc.sum_all(tc.mul(y, y))

err = tc.grad_check(build, {"x": x, "w1": w1, "w2": w2})
print(f"grad_check max relative error: {err:.3e}")
assert err < 1e-4

# no_grad turns the tape off for cheap evaluation passes
with tc.no_grad():
    quiet = build(None)
print(f"no_grad loss matches: {abs(quiet.item() - loss.item()) < 1e-12}")

# finite_checks traps NaN/inf as soon as an op produces one
huge = tc.tensor(np.array([1e300]))
try:
    with np.errstate(over="ignore"), tc.finite_checks():
        tc.mul(huge, huge)  # overflows to inf
except Exception as e:
    print(f"finite_checks caught: {type(e).__name__}: {e}")
