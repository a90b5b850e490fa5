"""Dense-array expression graphs with reverse-mode differentiation.

A Graph is an ordered list of op records. Leaves are named inputs, named
parameters (which own gradient slots), or constants; interior nodes hold
an op kind plus parent indices. Construction order is topological order,
so a single forward sweep evaluates the graph and a single reverse sweep
accumulates exact vector-Jacobian products. The reverse sweep runs VJPs
only along paths from a parameter to the loss: constants and inputs, and
every node computed from them alone, get no gradient.

Design constraints:
  * floats only (float32 for training, float64 for oracle checks); the
    node dtype follows its parents, so a graph built on float64 leaves
    stays float64 throughout,
  * activations are stored on the graph by forward_eval and reused by
    backward; backward without a prior forward is an error,
  * forward_eval also fills a per-node slot, `Graph.saved`, with what an
    op's VJP reuses: conv2d's column matrix, bdc's squared distances and
    their roots,
  * backward starts from a scalar node only; it caches per loss node which
    nodes depend on a parameter, so a graph that is built once and replayed
    walks that once,
  * convolution is cross-correlation as im2col plus matmul: the zero-padded
    input is gathered into a (C*kh*kw, B*ho*wo) column matrix by one
    strided-view copy, and forward, weight gradient and input gradient
    are one matmul each, the last scattered back by kh*kw strided
    slice-adds (col2im). No FFT, so results are bit-reproducible across
    runs on one machine,
  * bdc, the double-centred distance matrix of (B, d, m) maps, is one node
    with a closed-form VJP (`_bdc_forward`, `_bdc_vjp`).

The square root used on computed squared distances is `sqrt_guard`,
sqrt(max(x, eps)) with eps = 1e-12, whose derivative is defined as 0 on
the clamped branch.
"""

from __future__ import annotations

import numpy as np

SQRT_GUARD_EPS = 1e-12


class GraphError(Exception):
    """Any structural misuse of a Graph."""


class ShapeMismatch(GraphError):
    """Raised when fed or intermediate shapes contradict the op records."""

    def __init__(self, node: int, op: str, expected, actual):
        self.node = node
        self.op = op
        self.expected = expected
        self.actual = actual
        super().__init__(f"node {node} ({op}): expected shape {expected}, got {actual}")


class _Node:
    __slots__ = ("op", "parents", "meta", "name")

    def __init__(self, op: str, parents: tuple[int, ...], meta: dict, name: str | None = None):
        self.op = op
        self.parents = parents
        self.meta = meta
        self.name = name


class Var:
    """Handle to one node of a Graph; supports arithmetic to build new nodes."""

    __slots__ = ("graph", "idx")

    def __init__(self, graph: "Graph", idx: int):
        self.graph = graph
        self.idx = idx

    def _lift(self, other) -> "Var":
        if isinstance(other, Var):
            if other.graph is not self.graph:
                raise GraphError("cannot combine nodes from different graphs")
            return other
        return self.graph.constant(other)

    def __add__(self, other):
        return self.graph._emit("add", (self, self._lift(other)))

    def __radd__(self, other):
        return self._lift(other).__add__(self)

    def __sub__(self, other):
        return self.graph._emit("sub", (self, self._lift(other)))

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        return self.graph._emit("mul", (self, self._lift(other)))

    def __rmul__(self, other):
        return self._lift(other).__mul__(self)

    def __truediv__(self, other):
        return self.graph._emit("div", (self, self._lift(other)))

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def __neg__(self):
        return self.graph._emit("neg", (self,))

    def __matmul__(self, other):
        return self.graph._emit("matmul", (self, self._lift(other)))

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise GraphError("pow exponent must be a Python number")
        return self.graph._emit("pow_const", (self,), exponent=float(exponent))

    def exp(self):
        return self.graph._emit("exp", (self,))

    def log(self):
        return self.graph._emit("log", (self,))

    def relu(self):
        return self.graph._emit("relu", (self,))

    def sigmoid(self):
        return self.graph._emit("sigmoid", (self,))

    def sqrt_guard(self, eps: float = SQRT_GUARD_EPS):
        return self.graph._emit("sqrt_guard", (self,), eps=float(eps))

    def sum(self, axis=None, keepdims: bool = False):
        return self.graph._emit("sum", (self,), axis=_norm_axis(axis), keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return self.graph._emit("mean", (self,), axis=_norm_axis(axis), keepdims=keepdims)

    def logsumexp(self, axis: int, keepdims: bool = False):
        return self.graph._emit("logsumexp", (self,), axis=int(axis), keepdims=keepdims)

    def reshape(self, shape):
        return self.graph._emit("reshape", (self,), shape=tuple(int(s) for s in shape))

    def swap_last2(self):
        return self.graph._emit("swap_last2", (self,))

    def gather(self, indices):
        idx = np.asarray(indices, dtype=np.int64)
        return self.graph._emit("gather", (self,), indices=idx)

    def conv2d(self, weight: "Var", bias: "Var", stride: int, pad: int):
        w = self._lift(weight)
        b = self._lift(bias)
        return self.graph._emit("conv2d", (self, w, b), stride=int(stride), pad=int(pad))

    def bdc(self):
        return self.graph._emit("bdc", (self,))

    @property
    def value(self) -> np.ndarray:
        val = self.graph.values[self.idx]
        if val is None:
            raise GraphError(f"node {self.idx} has no value; run forward_eval first")
        return val


def _norm_axis(axis):
    if axis is None:
        return None
    if isinstance(axis, int):
        return (axis,)
    return tuple(int(a) for a in axis)


class Graph:
    """Ordered op records over named inputs, named parameters, and constants."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.values: list[np.ndarray | None] = []
        self.saved: list[tuple | None] = []
        self.inputs: dict[str, int] = {}
        self.params: dict[str, int] = {}
        self.outputs: dict[str, int] = {}
        self.param_grads: dict[str, np.ndarray] = {}
        self._path_cache: dict[int, list[bool]] = {}

    def _append(self, node: _Node) -> Var:
        self.nodes.append(node)
        self.values.append(None)
        self.saved.append(None)
        return Var(self, len(self.nodes) - 1)

    def _emit(self, op: str, parents: tuple[Var, ...], **meta) -> Var:
        return self._append(_Node(op, tuple(p.idx for p in parents), meta))

    def input(self, name: str, shape) -> Var:
        """Declare a named input; dims given as None are unconstrained."""
        if name in self.inputs:
            raise GraphError(f"duplicate input name {name!r}")
        shape = tuple(None if s is None else int(s) for s in shape)
        var = self._append(_Node("input", (), {"shape": shape}, name=name))
        self.inputs[name] = var.idx
        return var

    def parameter(self, name: str, value: np.ndarray) -> Var:
        """Named leaf with a gradient slot; `value` is referenced, not copied."""
        if name in self.params:
            raise GraphError(f"duplicate parameter name {name!r}")
        value = np.asarray(value)
        if value.dtype not in (np.float32, np.float64):
            raise GraphError(f"parameter {name!r} must be float32 or float64, got {value.dtype}")
        var = self._append(_Node("param", (), {}, name=name))
        self.values[var.idx] = value
        self.params[name] = var.idx
        return var

    def constant(self, value) -> Var:
        value = np.asarray(value)
        if value.dtype.kind in "iub":
            value = value.astype(np.float64)
        var = self._append(_Node("const", (), {}))
        self.values[var.idx] = value
        return var

    def mark_output(self, name: str, var: Var) -> None:
        self.outputs[name] = var.idx


# ---------------------------------------------------------------------------
# forward


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce `grad` back to `shape` by summing the broadcast axes."""
    for _ in range(grad.ndim - len(shape)):
        grad = grad.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _conv_geometry(x_shape, w_shape, stride, pad):
    b, c, h, w = x_shape
    oc, ic, kh, kw = w_shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    return b, c, h, w, oc, ic, kh, kw, ho, wo


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ho: int, wo: int) -> np.ndarray:
    """(C*kh*kw, B*ho*wo) columns: row (c, u, v) holds input channel c at
    kernel offset (u, v) for every output position (b, i, j)."""
    b, c, h, w = x.shape
    xp = x
    if pad:
        xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
    sb, sc, sh, sw = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (c, kh, kw, b, ho, wo), (sc, sh, sw, sb, stride * sh, stride * sw), writeable=False
    )
    return view.reshape(c * kh * kw, b * ho * wo)


def _conv2d_forward(x: np.ndarray, w: np.ndarray, bias: np.ndarray, stride: int, pad: int):
    """Output of one conv and the column matrix its VJP reuses."""
    b, c, h, wd, oc, ic, kh, kw, ho, wo = _conv_geometry(x.shape, w.shape, stride, pad)
    cols = _im2col(x, kh, kw, stride, pad, ho, wo)
    prod = (w.reshape(oc, -1) @ cols).reshape(oc, b, ho, wo).transpose(1, 0, 2, 3)
    out = np.empty((b, oc, ho, wo), dtype=np.result_type(prod, bias))
    return np.add(prod, bias[None, :, None, None], out=out), cols


def _conv2d_vjp(grad, x, w, stride, pad, need_x, cols):
    """(dx, dw, db) of one conv from its forward's column matrix `cols`; dx
    is None unless `need_x`, else in x's dtype."""
    b, c, h, wd, oc, ic, kh, kw, ho, wo = _conv_geometry(x.shape, w.shape, stride, pad)
    g2 = grad.transpose(1, 0, 2, 3).reshape(oc, b * ho * wo)
    gw = (g2 @ cols.T).reshape(w.shape)
    gb = grad.sum(axis=(0, 2, 3))
    if not need_x:
        return None, gw, gb
    gcols = (w.reshape(oc, -1).T @ g2).reshape(c, kh, kw, b, ho, wo)
    gxp = np.zeros((b, c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            # One offset's strided positions are distinct, so the slice-add is exact.
            window = gxp[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride]
            window += gcols[:, u, v].transpose(1, 0, 2, 3)
    return gxp[:, :, pad : pad + h, pad : pad + wd], gw, gb


def _bdc_forward(fm: np.ndarray):
    """(B, d, m) maps -> (B, d, d) double-centred guarded distances between
    channel rows, plus the squared distances and distances the VJP reads.

    Squared distances come from the Gram matrix alone, diag_i + diag_j -
    2 gram_ij, so a channel's distance to itself is exactly zero. The Gram
    matrix is formed in the map's dtype and cast to float64, so the
    distances are float64 whatever the map dtype.
    """
    gram = np.matmul(fm, np.swapaxes(fm, -1, -2))
    gram64 = gram.astype(np.float64)
    diag = np.diagonal(gram64, axis1=1, axis2=2)
    sq = diag[:, :, None] + diag[:, None, :] - 2.0 * gram64
    hat = np.sqrt(np.maximum(sq, SQRT_GUARD_EPS))
    row = hat.mean(axis=2, keepdims=True)
    col = hat.mean(axis=1, keepdims=True)
    grand = hat.mean(axis=(1, 2), keepdims=True)
    return hat - row - col + grand, (sq, hat)


def _bdc_vjp(grad: np.ndarray, fm: np.ndarray, sq: np.ndarray, hat: np.ndarray) -> np.ndarray:
    """Gradient into the (B, d, m) maps of `_bdc_forward` for upstream `grad`.

    Double-centring is self-adjoint; the guarded root passes 0.5 / hat
    above eps and nothing on the clamped branch; a squared distance sends
    its gradient to the two diagonal Gram entries and, doubled and negated,
    to its own entry; and the Gram matrix F F^T sends (G + G^T) F to F.
    """
    gh = grad - grad.mean(axis=2, keepdims=True) - grad.mean(axis=1, keepdims=True)
    gh += grad.mean(axis=(1, 2), keepdims=True)
    gs = np.where(sq > SQRT_GUARD_EPS, gh * 0.5 / hat, 0.0)
    g_gram = -2.0 * gs
    d = np.arange(gs.shape[1])
    g_gram[:, d, d] += gs.sum(axis=1) + gs.sum(axis=2)
    return (g_gram + np.swapaxes(g_gram, -1, -2)) @ fm


def _forward_one(graph: Graph, idx: int, feeds: dict[str, np.ndarray]) -> np.ndarray:
    node = graph.nodes[idx]
    op = node.op
    vals = [graph.values[p] for p in node.parents]

    if op == "input":
        if node.name not in feeds:
            raise GraphError(f"missing input {node.name!r}")
        arr = np.asarray(feeds[node.name])
        want = node.meta["shape"]
        if len(arr.shape) != len(want) or any(w is not None and w != a for w, a in zip(want, arr.shape)):
            raise ShapeMismatch(idx, "input:" + str(node.name), want, arr.shape)
        return arr
    if op in ("param", "const"):
        return graph.values[idx]

    try:
        if op == "add":
            return vals[0] + vals[1]
        if op == "sub":
            return vals[0] - vals[1]
        if op == "mul":
            return vals[0] * vals[1]
        if op == "div":
            return vals[0] / vals[1]
        if op == "neg":
            return -vals[0]
        if op == "pow_const":
            return vals[0] ** node.meta["exponent"]
        if op == "exp":
            return np.exp(vals[0])
        if op == "log":
            return np.log(vals[0])
        if op == "relu":
            return np.maximum(vals[0], 0)
        if op == "sigmoid":
            x = vals[0]
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out
        if op == "sqrt_guard":
            return np.sqrt(np.maximum(vals[0], node.meta["eps"]))
        if op == "matmul":
            a, b = vals
            if a.ndim != b.ndim or a.ndim < 2:
                raise ShapeMismatch(idx, op, f"equal ranks >= 2, lhs rank {a.ndim}", f"rhs rank {b.ndim}")
            if a.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
                raise ShapeMismatch(idx, op, a.shape[:-2], b.shape[:-2])
            if a.shape[-1] != b.shape[-2]:
                raise ShapeMismatch(idx, op, f"inner dim {a.shape[-1]}", f"inner dim {b.shape[-2]}")
            return np.matmul(a, b)
        if op == "sum":
            return vals[0].sum(axis=node.meta["axis"], keepdims=node.meta["keepdims"])
        if op == "mean":
            return vals[0].mean(axis=node.meta["axis"], keepdims=node.meta["keepdims"])
        if op == "logsumexp":
            x = vals[0]
            axis = node.meta["axis"]
            m = np.max(x, axis=axis, keepdims=True)
            out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
            return out if node.meta["keepdims"] else np.squeeze(out, axis=axis)
        if op == "reshape":
            return vals[0].reshape(node.meta["shape"])
        if op == "swap_last2":
            return np.swapaxes(vals[0], -1, -2)
        if op == "gather":
            return vals[0][node.meta["indices"]]
        if op == "conv2d":
            x, w, b = vals
            if x.ndim != 4 or w.ndim != 4:
                raise ShapeMismatch(idx, op, "(B,C,H,W) and (O,C,kh,kw)", (x.shape, w.shape))
            if x.shape[1] != w.shape[1]:
                raise ShapeMismatch(idx, op, f"in-channels {w.shape[1]}", f"in-channels {x.shape[1]}")
            out, graph.saved[idx] = _conv2d_forward(x, w, b, node.meta["stride"], node.meta["pad"])
            return out
        if op == "bdc":
            fm = vals[0]
            if fm.ndim != 3:
                raise ShapeMismatch(idx, op, "(B, d, m) feature maps", fm.shape)
            out, graph.saved[idx] = _bdc_forward(fm)
            return out
    except ShapeMismatch:
        raise
    except ValueError as exc:
        shapes = [v.shape for v in vals]
        raise ShapeMismatch(idx, op, "broadcast-compatible operands", shapes) from exc
    raise GraphError(f"unknown op {op!r}")


def forward_eval(graph: Graph, feeds: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Evaluate all nodes in record order; returns the marked outputs.

    Activations stay on the graph for a subsequent backward call.
    """
    feeds = feeds or {}
    unknown = set(feeds) - set(graph.inputs)
    if unknown:
        raise GraphError(f"unknown input names {sorted(unknown)}")
    for idx in range(len(graph.nodes)):
        graph.values[idx] = _forward_one(graph, idx, feeds)
    return {name: graph.values[i] for name, i in graph.outputs.items()}


# ---------------------------------------------------------------------------
# backward


def _vjp(graph: Graph, idx: int, grad: np.ndarray, needed: list[bool]) -> list[np.ndarray | None]:
    """Gradients into the parents of node `idx`, None for each parent whose
    `needed` flag is off. A unary op is only reached through a needed
    parent, so only ops with several parents read the flags."""
    node = graph.nodes[idx]
    op = node.op
    vals = [graph.values[p] for p in node.parents]
    out = graph.values[idx]
    need_a = needed[0]
    need_b = len(needed) > 1 and needed[1]

    if op == "add":
        return [
            _unbroadcast(grad, vals[0].shape) if need_a else None,
            _unbroadcast(grad, vals[1].shape) if need_b else None,
        ]
    if op == "sub":
        return [
            _unbroadcast(grad, vals[0].shape) if need_a else None,
            _unbroadcast(-grad, vals[1].shape) if need_b else None,
        ]
    if op == "mul":
        return [
            _unbroadcast(grad * vals[1], vals[0].shape) if need_a else None,
            _unbroadcast(grad * vals[0], vals[1].shape) if need_b else None,
        ]
    if op == "div":
        ga = _unbroadcast(grad / vals[1], vals[0].shape) if need_a else None
        gb = _unbroadcast(-grad * vals[0] / (vals[1] * vals[1]), vals[1].shape) if need_b else None
        return [ga, gb]
    if op == "neg":
        return [-grad]
    if op == "pow_const":
        p = node.meta["exponent"]
        return [grad * p * vals[0] ** (p - 1.0)]
    if op == "exp":
        return [grad * out]
    if op == "log":
        return [grad / vals[0]]
    if op == "relu":
        return [grad * (vals[0] > 0)]
    if op == "sigmoid":
        return [grad * out * (1.0 - out)]
    if op == "sqrt_guard":
        eps = node.meta["eps"]
        safe = np.where(vals[0] > eps, grad * 0.5 / out, 0.0)
        return [safe]
    if op == "matmul":
        a, b = vals
        return [
            np.matmul(grad, np.swapaxes(b, -1, -2)) if need_a else None,
            np.matmul(np.swapaxes(a, -1, -2), grad) if need_b else None,
        ]
    if op == "sum":
        return [_spread(grad, vals[0].shape, node.meta["axis"], node.meta["keepdims"])]
    if op == "mean":
        axis = node.meta["axis"]
        count = vals[0].size if axis is None else int(np.prod([vals[0].shape[a] for a in axis]))
        return [_spread(grad, vals[0].shape, axis, node.meta["keepdims"]) / count]
    if op == "logsumexp":
        axis = node.meta["axis"]
        lse = out if node.meta["keepdims"] else np.expand_dims(out, axis)
        soft = np.exp(vals[0] - lse)
        g = grad if node.meta["keepdims"] else np.expand_dims(grad, axis)
        return [g * soft]
    if op == "reshape":
        return [grad.reshape(vals[0].shape)]
    if op == "swap_last2":
        return [np.swapaxes(grad, -1, -2)]
    if op == "gather":
        gx = np.zeros_like(vals[0])
        np.add.at(gx, node.meta["indices"], grad)
        return [gx]
    if op == "conv2d":
        x, w, _b = vals
        return list(_conv2d_vjp(grad, x, w, node.meta["stride"], node.meta["pad"], need_a, graph.saved[idx]))
    if op == "bdc":
        return [_bdc_vjp(grad, vals[0], *graph.saved[idx])]
    raise GraphError(f"unknown op {op!r}")


def _spread(grad, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(grad, shape).copy() if np.ndim(grad) == 0 else np.full(shape, grad)
    g = grad
    if not keepdims:
        for a in sorted(axis):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).copy()


def _param_paths(graph: Graph, last: int) -> list[bool]:
    """Per node up to `last`: whether it is a parameter or computed from one."""
    needed = [False] * (last + 1)
    for idx in range(last + 1):
        node = graph.nodes[idx]
        needed[idx] = node.op == "param" or any(needed[p] for p in node.parents)
    return needed


def backward(graph: Graph, loss: Var) -> dict[str, np.ndarray]:
    """Reverse sweep from a scalar node; fills and returns parameter grads.

    VJPs run only along paths from a parameter to the loss: a node computed
    from constants and inputs alone is skipped, and an op never forms the
    gradient into such a parent. Every gradient that is formed accumulates
    in the same order as a full sweep, so parameter grads are exactly those
    of one. Gradient slots are replaced, not accumulated, on each call.
    Constants and inputs get no gradient and no slot.
    """
    if loss.graph is not graph:
        raise GraphError("loss node belongs to a different graph")
    out = graph.values[loss.idx]
    if out is None:
        raise GraphError("run forward_eval before backward")
    if out.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {out.shape}")

    needed = graph._path_cache.get(loss.idx)
    if needed is None:
        needed = graph._path_cache[loss.idx] = _param_paths(graph, loss.idx)
    grads: list[np.ndarray | None] = [None] * len(graph.nodes)
    grads[loss.idx] = np.ones_like(out)
    for idx in range(loss.idx, -1, -1):
        g = grads[idx]
        node = graph.nodes[idx]
        if g is None or not needed[idx] or not node.parents:
            continue
        parent_grads = _vjp(graph, idx, g, [needed[p] for p in node.parents])
        for p_idx, p_grad in zip(node.parents, parent_grads):
            if p_grad is None:
                continue
            if grads[p_idx] is None:
                grads[p_idx] = p_grad
            else:
                grads[p_idx] = grads[p_idx] + p_grad

    graph.param_grads = {}
    for name, idx in graph.params.items():
        g = grads[idx]
        if g is None:
            g = np.zeros_like(graph.values[idx])
        graph.param_grads[name] = g
    return graph.param_grads


# ---------------------------------------------------------------------------
# composite helpers


def l2_normalize(x: Var, axis: int = -1, eps: float = SQRT_GUARD_EPS) -> Var:
    norm = (x * x).sum(axis=axis, keepdims=True).sqrt_guard(eps)
    return x / norm

