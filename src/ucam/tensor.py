"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Everything in this package runs on `Tensor`, a thin wrapper around a numpy
array that records how it was produced. Calling :func:`backward` on a scalar
walks the recorded graph once, in reverse topological order, and deposits
gradients on every leaf created with ``requires_grad=True``.

Ground rules (they keep masking bugs visible):

* float32 is the training dtype; float64 is used for gradient checking.
  Operands of mixed dtype are an error, never silently promoted.
* there is no implicit broadcast: :func:`linear` adds its 1-D bias along
  the last axis, and every other shape mismatch raises
  :class:`~ucam.errors.ShapeError`.
* calling :func:`backward` twice without resetting grads is an error,
  because silent accumulation is the classic source of wrong optimizer
  steps.
* dropout is inverted dropout: scaled by 1/(1-p) at train time so the
  eval-time forward needs no rescaling.

New differentiable primitives can be defined outside this module with
:func:`from_op`; the normalization and attention ops do exactly that.
A linear layer, weight, transpose and bias together, is one graph node
(:func:`linear`), so a forward records one node per layer, not three.

Backward closures follow one rule: compute a parent's gradient only when
``needs_grad(parent)`` held at forward time; return None otherwise. Frozen
weights and constant inputs then cost no backward work, so speaker
adaptation, which trains only an input transform, skips every weight
gradient of the model it runs through. :func:`backward` still drops any
gradient a parent does not need, so an op whose gradient costs nothing,
such as one passing the output gradient through, may skip the test.

Kernels work in place on buffers they own, with ``out=`` and augmented
assignment, to spare full-size temporaries. A backward closure never writes
into its incoming gradient, nor into any array it did not allocate in that
call: :func:`add` hands one gradient array to both of its parents, and the
forward arrays a closure reads may be another op's input or output.

The graph holds only what backward reads (the saved-tensor design of
Paszke et al. 2019, "PyTorch: An Imperative Style, High-Performance Deep
Learning Library"). A tensor's graph node keeps its parents' nodes, a
trainable leaf itself (backward sets its ``grad``), its backward closure
and its op name, never an output array. So a closure captures, at forward
time, the arrays it reads, and only those of the gradients it will
compute; it never captures a parent ``Tensor``, not even to read its
``shape`` or dtype later, since that would keep the parent's array alive.
An op whose backward reads none of its inputs, such as :func:`add`, lets
them be freed as soon as the caller drops them, and :func:`backward`
releases each node as soon as its closure has run.

What a closure keeps is the narrowest exact form of what it reads (Chen
et al. 2016, "Training Deep Nets with Sublinear Memory Cost": keep what is
costly to rebuild, recompute what is cheap). A 0/1 draw is kept as a
boolean: :func:`dropout` keeps its draw and rebuilds its scaled factor. A
value that backward can rebuild bit for bit from arrays it keeps anyway is
rebuilt: :func:`swish` and :func:`glu` keep their input and compute its
sigmoid again, so their forwards write the product over the sigmoid.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, GraphError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32


class _Modes(threading.local):
    """Graph recording and finite checks, each set per thread (as PyTorch
    keeps grad mode, Paszke et al. 2019): every thread starts with
    recording on and checks off."""

    grad = True
    check_finite = False


_MODES = _Modes()


class _Node:
    """How one recorded op's output was made: all that backward needs.

    ``_parents`` holds one entry per parent of the op: the parent's node,
    the parent itself when it is a trainable leaf, or None for a constant.
    """

    __slots__ = ("_parents", "_backward_fn", "_op")

    def __init__(self, parents: tuple, backward_fn: Callable, op: str):
        self._parents = parents
        self._backward_fn = backward_fn
        self._op = op


class Tensor:
    """An n-dimensional float array with an optional gradient slot.

    ``data`` is always a float32 or float64 ndarray. ``grad`` stays ``None``
    until a backward pass reaches this tensor; it then has the same shape
    and dtype as ``data``. The output of a recorded op has a graph node;
    ``_parents``, ``_backward_fn`` and ``_op`` read it, and are None on a
    leaf and once backward has released the node.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def _parents(self) -> tuple | None:
        return None if self._node is None else self._node._parents

    @property
    def _backward_fn(self) -> Callable | None:
        return None if self._node is None else self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn: Callable) -> None:
        self._node._backward_fn = fn

    @property
    def _op(self) -> str | None:
        return None if self._node is None else self._node._op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f", op={self._op}" if self._op else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{tag})"


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Wrap array-like data in a constant (or leaf) tensor."""
    arr = np.asarray(data)
    if dtype is None:
        dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else DEFAULT_DTYPE
    arr = np.asarray(arr, dtype=dtype, order="C")
    return Tensor(arr, requires_grad=requires_grad)


def parameter(data, dtype=None) -> Tensor:
    """A leaf tensor that collects gradients."""
    return tensor(data, requires_grad=True, dtype=dtype)


class _ModeBlock:
    """Values of the modes to hold inside a ``with`` block, on the thread
    that runs it. It keeps plain values only, so it pickles: a forked
    worker enters the modes that a request carries."""

    def __init__(self, **values):
        self.values = values

    def __enter__(self):
        self.prev = {name: getattr(_MODES, name) for name in self.values}
        for name, value in self.values.items():
            setattr(_MODES, name, value)

    def __exit__(self, *exc):
        for name, value in self.prev.items():
            setattr(_MODES, name, value)


def no_grad():
    """Skip graph recording inside the block (pure inference). It applies
    to the calling thread only: other threads keep recording."""
    return _ModeBlock(grad=False)


def finite_checks():
    """Raise NumericError, naming the op, whenever any op emits a non-finite
    value inside the block. It applies to the calling thread only."""
    return _ModeBlock(check_finite=True)


def current_modes():
    """The calling thread's graph-recording and finite-check modes, as a
    context manager that enters them on whichever thread or forked process
    runs it: a worker enters its caller's modes so."""
    return _ModeBlock(grad=_MODES.grad, check_finite=_MODES.check_finite)


def needs_grad(t: Tensor) -> bool:
    """Whether a backward pass through an op built now delivers a gradient to ``t``.

    True while graph recording is on and ``t`` is a trainable leaf or the
    output of a recorded op.
    """
    return _MODES.grad and t.requires_grad


def _entry(t: Tensor):
    """What a node records of parent ``t``: its node, ``t`` itself when it
    is a trainable leaf, or None for a constant."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def from_op(data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
            op: str) -> Tensor:
    """Build a graph node for a custom differentiable op.

    ``backward`` receives the output gradient and must return one gradient
    (or None) per parent, each matching the parent's shape. Compute a
    parent's gradient only when ``needs_grad(parent)`` held at forward time;
    return None otherwise. ``backward`` may write only into arrays it
    allocated in that call, never into the output gradient, which
    :func:`add` hands to two parents, nor into a forward array. It may
    capture arrays only, and only those its needed gradients read; never a
    parent ``Tensor``, whose array the graph would then keep (read shapes
    and dtypes into locals at forward time). Of those arrays it keeps the
    narrowest exact form: a 0/1 draw as a boolean, and nothing it can
    rebuild bit for bit from arrays it keeps anyway. When no parent needs a
    gradient the node collapses to a constant, so eval-mode code pays
    nothing for graph bookkeeping.
    """
    if _MODES.check_finite and not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by op '{op}'")
    # the leading test keeps no-grad forwards free of per-parent calls
    track = _MODES.grad and any(needs_grad(p) for p in parents)
    out = Tensor(data)
    if track:
        out.requires_grad = True
        out._node = _Node(tuple(map(_entry, parents)), backward, op)
    return out


def check_same_dtype(op: str, *arrays: np.ndarray) -> None:
    """Refuse operands of mixed dtype for ``op``: there is no promotion."""
    d0 = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != d0:
            raise ShapeError(f"{op}: mixed dtypes {d0} and {a.dtype}")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for identical shapes."""
    check_same_dtype("add", a.data, b.data)
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return from_op(a.data + b.data, (a, b), lambda g: (g, g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    check_same_dtype("mul", a.data, b.data)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    # each factor is kept only for the other's gradient
    ad = a.data if needs_grad(b) else None
    bd = b.data if needs_grad(a) else None
    return from_op(a.data * b.data, (a, b),
                   lambda g: (None if bd is None else g * bd,
                              None if ad is None else g * ad), "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return from_op(a.data * c, (a,), lambda g: (g * c,), "scale")


def add_const(a: Tensor, arr: np.ndarray, op: str = "add_const") -> Tensor:
    """Elementwise sum with a fixed array (no gradient into ``arr``), which
    may broadcast up to ``a``'s shape but never enlarge it."""
    try:
        bshape = np.broadcast_shapes(a.shape, arr.shape)
    except ValueError:
        bshape = None
    if bshape != a.shape:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {arr.shape}")
    check_same_dtype(op, a.data, arr)
    return from_op(a.data + arr, (a,), lambda g: (g,), op)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supported forms: 2-D @ 2-D, N-D @ 2-D (a linear map on the last axis),
    and N-D @ N-D with identical leading dimensions (stacked matmul).
    """
    check_same_dtype("matmul", a.data, b.data)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes "
                         f"{a.shape} and {b.shape}")

    need_a, need_b = needs_grad(a), needs_grad(b)
    # each operand is kept only for the other's gradient
    ad, bd = a.data if need_b else None, b.data if need_a else None
    if b.ndim == 2:
        k, n = b.shape

        def bwd(g):
            da = g @ bd.swapaxes(-1, -2) if need_a else None
            db = ad.reshape(-1, k).T @ g.reshape(-1, n) if need_b else None
            return da, db
        return from_op(a.data @ b.data, (a, b), bwd, "matmul")

    if a.ndim == b.ndim and a.shape[:-2] == b.shape[:-2]:
        def bwd(g):
            da = g @ bd.swapaxes(-1, -2) if need_a else None
            db = ad.swapaxes(-1, -2) @ g if need_b else None
            return da, db
        return from_op(a.data @ b.data, (a, b), bwd, "matmul")

    raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape} "
                     "(leading dimensions must match exactly)")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Apply ``w`` (stored [out, in]) to the last axis of ``x``, plus ``b``.

    One graph node that makes the numpy calls of ``matmul(x, w.T) + b``:
    ``x @ w.T`` then ``+ b`` forward; ``g @ w``, ``(x.T @ g).T`` and a sum
    of ``g`` over every leading axis backward. Its op name is "matmul".
    """
    parents = (x, w) if b is None else (x, w, b)
    check_same_dtype("linear", *(t.data for t in parents))
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not fit weight "
                         f"{w.shape} stored [out, in]")
    n, k = w.shape
    if b is not None and b.shape != (n,):
        raise ShapeError(f"linear: bias {b.shape} does not fit weight "
                         f"{w.shape}")
    y = x.data @ w.data.T
    if b is not None:
        y += b.data
    need_x, need_w = needs_grad(x), needs_grad(w)
    has_b = b is not None
    need_b = has_b and needs_grad(b)
    # x is kept only for dW, w only for dX
    xd, wd = x.data if need_w else None, w.data if need_x else None

    def bwd(g):
        g2 = g.reshape(-1, n)
        dx = g @ wd if need_x else None
        dw = (xd.reshape(-1, k).T @ g2).T if need_w else None
        if not has_b:
            return dx, dw
        return dx, dw, g2.sum(axis=0) if need_b else None
    return from_op(y, parents, bwd, "matmul")


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return from_op(np.transpose(a.data, axes), (a,),
                   lambda g: (np.transpose(g, inv),), "transpose")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    orig = a.shape
    return from_op(np.reshape(a.data, shape), (a,),
                   lambda g: (np.reshape(g, orig),), "reshape")


def sum_all(a: Tensor) -> Tensor:
    shape, dtype = a.shape, a.data.dtype
    out = np.asarray(a.data.sum(), dtype=dtype)

    def bwd(g):
        return (np.full(shape, float(g), dtype=dtype),)
    return from_op(out, (a,), bwd, "sum_all")


# ---------------------------------------------------------------------------
# activations


def _sigmoid_raw(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows: 1 / (1 + e) where
    # x >= 0, e / (1 + e) elsewhere. As e <= 1, max(e, [x >= 0]) is that
    # numerator, with no branch per element.
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    d = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, d, out=e)


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    x = a.data
    s = _sigmoid_raw(x)
    out = np.multiply(x, s, out=s)

    def bwd(g):
        # g * (s * (1 + x * (1 - s))), s rebuilt from x
        s = _sigmoid_raw(x)
        d = np.subtract(1.0, s)
        d *= x
        d += 1.0
        d *= s
        d *= g
        return (d,)
    return from_op(out, (a,), bwd, "swish")


def relu(a: Tensor) -> Tensor:
    # out > 0 is x > 0, NaN and -0.0 included, so backward keeps the output
    out = np.maximum(a.data, 0.0)
    return from_op(out, (a,), lambda g: (g * (out > 0),), "relu")


def elu(a: Tensor) -> Tensor:
    """ELU with alpha = 1: x for x > 0, exp(x) - 1 otherwise."""
    dtype = a.data.dtype
    pos = a.data > 0
    out = np.where(pos, a.data, np.expm1(np.minimum(a.data, 0.0)))
    out = out.astype(dtype, copy=False)

    def bwd(g):
        # exp(x) == out + 1 on the negative branch
        return (g * np.where(pos, 1.0, out + 1.0).astype(dtype),)
    return from_op(out, (a,), bwd, "elu")


def glu(a: Tensor, axis: int = -1) -> Tensor:
    """Gated linear unit: first half of ``axis`` gated by sigmoid of the second."""
    shape, dtype = a.shape, a.data.dtype
    c = shape[axis]
    if c % 2 != 0:
        raise ShapeError(f"glu: axis {axis} has odd extent {c} in shape {shape}")
    # halves in C order, whatever the input's layout
    v, u = np.split(np.ascontiguousarray(a.data), 2, axis=axis)
    s = _sigmoid_raw(u)
    out = np.multiply(v, s, out=s)

    def bwd(g):
        s = _sigmoid_raw(u)
        da = np.empty(shape, dtype)
        dv, du = np.split(da, 2, axis=axis)
        # du = g * v * s * (1 - s); dv holds 1 - s until g * s is due
        np.multiply(g, v, out=du)
        du *= s
        du *= np.subtract(1.0, s, out=dv)
        np.multiply(g, s, out=dv)
        return (da,)
    return from_op(out, (a,), bwd, "glu")


def dropout(a: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None:
        raise ConfigError("dropout with p > 0 needs an explicit rng")
    dtype = a.data.dtype
    # the graph keeps the boolean draw, one byte an element
    keep = rng.random(a.shape) >= p

    def factor():
        k = keep.astype(dtype)
        k /= 1.0 - p
        return k
    return from_op(a.data * factor(), (a,), lambda g: (g * factor(),),
                   "dropout")


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    y = z - lse

    def bwd(g):
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)
    return from_op(y, (a,), bwd, "log_softmax")


def take_along_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry along the last axis per leading position.

    ``idx`` has shape ``a.shape[:-1]``; out-of-range entries raise DataError
    with the offending position.
    """
    idx = np.asarray(idx)
    if idx.shape != a.shape[:-1]:
        raise ShapeError(f"take_along_last: index shape {idx.shape} does not "
                         f"match leading shape {a.shape[:-1]}")
    k = a.shape[-1]
    bad = (idx < 0) | (idx >= k)
    if bad.any():
        pos = tuple(int(v) for v in np.argwhere(bad)[0])
        raise DataError(f"label {int(idx[pos])} out of range [0, {k}) at {pos}")
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]
    shape, dtype = a.shape, a.data.dtype

    def bwd(g):
        da = np.zeros(shape, dtype)
        np.put_along_axis(da, idx[..., None], g[..., None], axis=-1)
        return (da,)
    return from_op(out, (a,), bwd, "take_along_last")


# ---------------------------------------------------------------------------
# backward pass


def _receives(p) -> bool:
    """Whether backward passes a gradient on to graph entry ``p``: a node,
    or a leaf that is still trainable."""
    return p is not None and (not isinstance(p, Tensor) or p.requires_grad)


def _toposort(root: Tensor) -> list:
    """The graph entries that ``root`` reaches, each after its parents."""
    topo: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(_entry(root), False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents or ():
            if isinstance(p, _Node) and p._parents is None:
                raise GraphError(f"op '{node._op}' reads a tensor whose graph "
                                 "an earlier backward spent; build a fresh "
                                 "graph")
            if id(p) not in visited and _receives(p):
                stack.append((p, False))
    return topo


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable requires_grad leaf.

    ``loss`` must be scalar. Gradients of a node used on several paths are
    summed. Each node is released as soon as its closure has run, so the
    arrays it alone kept are freed as the pass goes. Backward spends the
    graph of ``loss``, its own node first: a second call on it raises
    GraphError, as does a backward through any tensor of that graph, or
    a call while some leaf still holds a gradient.

    If the pass fails part-way (a closure raises, or under
    :func:`finite_checks` a non-finite gradient reaches an op, and the
    error names that op), the error propagates and the loss is spent all
    the same: the nodes already run are released, and the leaves already
    reached keep their gradients. Zero the gradients and build a fresh
    graph to try again.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    node = loss._node
    if node is not None and node._parents is None:
        raise GraphError("backward already ran for this loss; build a fresh graph")
    if node is None and not loss.requires_grad:
        raise GraphError("loss is a constant: nothing requires a gradient")

    topo = _toposort(loss)
    grads: dict[int, np.ndarray] = {id(topo[-1]): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is not None and _MODES.check_finite and not np.isfinite(g).all():
            raise NumericError(
                f"non-finite gradient flowing into op '{node._op or 'leaf'}'")
        if isinstance(node, Tensor):
            if g is None:
                continue
            if node.grad is not None:
                raise GraphError(
                    "leaf already holds a gradient; call zero_grad before "
                    "running backward again")
            node.grad = g
            continue
        # released before it runs: its closure's arrays go when it returns
        fn, parents = node._backward_fn, node._parents
        node._parents = node._backward_fn = None
        if g is None:
            continue
        for p, pg in zip(parents, fn(g)):
            if pg is None or not _receives(p):
                continue
            grads[id(p)] = grads[id(p)] + pg if id(p) in grads else pg


def zero_grad(named: Iterable) -> None:
    """Clear the gradients of (name, tensor) pairs."""
    for _, t in named:
        t.grad = None


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable, params: dict, eps: float = 1e-4,
               samples_per_tensor: int = 25,
               rng: np.random.Generator | None = None,
               floor: float = 0.0) -> float:
    """Compare analytic gradients of ``f(params)`` against central differences.

    ``params`` maps each name to its tensor and is passed to ``f`` as it is.

    ``f`` must be deterministic (dropout off) and return a scalar Tensor
    rebuilt from the same parameter tensors on every call. All parameters
    must be float64: float32 tolerance hides real bugs at the 1e-5 level.

    Returns the max over sampled coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)``.

    ``floor`` skips coordinates where analytic and numeric are BOTH below
    it in magnitude. Deep compositions of normalizing modules have
    directions with true gradients around 1e-7 while the objective sits
    near 1e2; there the difference quotient is pure roundoff and certifies
    nothing. A missing gradient path still fails: its numeric side is
    large while the analytic side is zero.
    """
    for name, t in params.items():
        if t.data.dtype != np.float64:
            raise ConfigError(f"grad_check requires float64 parameters; "
                              f"'{name}' is {t.data.dtype}")
    if rng is None:
        rng = np.random.default_rng(np.random.Philox(key=[0x6ADC, 0]))

    def run() -> Tensor:
        with finite_checks():
            out = f(params)
        if out.data.size != 1:
            raise GraphError("grad_check objective must be scalar")
        return out

    zero_grad(params.items())
    loss = run()
    backward(loss)
    analytic = {name: (t.grad.copy() if t.grad is not None
                       else np.zeros_like(t.data))
                for name, t in params.items()}
    zero_grad(params.items())

    max_rel = 0.0
    for name, t in params.items():
        n = t.data.size
        coords = (np.arange(n) if n <= samples_per_tensor
                  else rng.choice(n, size=samples_per_tensor, replace=False))
        flat = t.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            lp = run().item()
            flat[c] = orig - eps
            lm = run().item()
            flat[c] = orig
            numeric = (lp - lm) / (2.0 * eps)
            a = analytic[name].reshape(-1)[c]
            if max(abs(a), abs(numeric)) < floor:
                continue
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            max_rel = max(max_rel, rel)
    return max_rel
