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
  * a graph built as `Graph(forward_only=True)` is never differentiated:
    forward_eval fills no `saved` slot and drops each interior value once
    its last reader has run, keeping leaves and the nodes nothing reads,
    so a whole-set pass holds only the values still to be read; backward
    on it is an error,
  * backward starts from a scalar node only; it caches per loss node which
    nodes depend on a parameter, so a graph that is built once and replayed
    walks that once,
  * convolution is cross-correlation as im2col plus matmul: the zero-padded
    input is gathered into a (C*kh*kw, B*ho*wo) column matrix by one
    strided-view copy, and forward, weight gradient and input gradient
    are one matmul each, the last scattered back (col2im) by kh*kw strided
    slice-adds into a (C, H, W, B) buffer, batch innermost, whose
    transposed view is dx. No FFT, so results are bit-reproducible across
    runs on one machine,
  * bdc, the double-centred distance matrix of (B, d, m) maps, is one node
    with a closed-form VJP (`_bdc_forward`, `_bdc_vjp`).

The square root used on computed squared distances is `sqrt_guard`,
sqrt(max(x, eps)) with eps = 1e-12, whose derivative is defined as 0 on
the clamped branch.

Every interior op kind is one entry of `_OPS`, its forward and its VJP
side by side; `forward_eval` and `backward` call the entry of each node,
and `Graph._emit` rejects a kind the table lacks. To add an op, add one
`_OPS` entry, one `Var` method that emits it, and one case in the
gradcheck test `test_every_primitive_op_gradchecks`, which fails while
any table entry has no case.
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

    def zero_diagonal(self):
        return self.graph._emit("zero_diagonal", (self,))

    def diagonal(self):
        return self.graph._emit("diagonal", (self,))

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
            hint = "run forward_eval first"
            if self.graph.forward_only:
                hint += "; a forward-only graph frees interior values after their last reader"
            raise GraphError(f"node {self.idx} has no value; {hint}")
        return val


def _norm_axis(axis):
    if axis is None:
        return None
    if isinstance(axis, int):
        return (axis,)
    return tuple(int(a) for a in axis)


class Graph:
    """Ordered op records over named inputs, named parameters, and constants.

    A `forward_only` graph keeps no VJP caches and frees interior values
    during forward_eval; it cannot be differentiated.
    """

    def __init__(self, forward_only: bool = False):
        self.forward_only = forward_only
        self.nodes: list[_Node] = []
        self.values: list[np.ndarray | None] = []
        self.saved: list[tuple | None] = []
        self.inputs: dict[str, int] = {}
        self.params: dict[str, int] = {}
        self._path_cache: dict[int, list[bool]] = {}

    def _append(self, node: _Node) -> Var:
        self.nodes.append(node)
        self.values.append(None)
        self.saved.append(None)
        return Var(self, len(self.nodes) - 1)

    def _emit(self, op: str, parents: tuple[Var, ...], **meta) -> Var:
        if op not in _OPS:
            raise GraphError(f"unknown op {op!r}")
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


# ---------------------------------------------------------------------------
# ops


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce `grad` back to `shape` by summing the broadcast axes."""
    for _ in range(grad.ndim - len(shape)):
        grad = grad.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _spread(grad, shape, axis, keepdims):
    """`grad` of a reduction broadcast back over its reduced axes, as a
    read-only view."""
    g = grad
    if axis is not None and not keepdims:
        for a in sorted(axis):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


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
    if pad:
        xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
    else:
        xp = np.ascontiguousarray(x)  # a buffer the strides below can address
    sb, sc, sh, sw = xp.strides
    # np.ndarray over xp's buffer, not as_strided: as_strided reads
    # __array_interface__ on every call, which grows the interpreter's
    # interned-string table by about 1 MB over a study unit.
    view = np.ndarray(
        (c, kh, kw, b, ho, wo), xp.dtype, buffer=xp, strides=(sc, sh, sw, sb, stride * sh, stride * sw)
    )
    view.flags.writeable = False
    return view.reshape(c * kh * kw, b * ho * wo)


def _conv2d_forward(x: np.ndarray, w: np.ndarray, bias: np.ndarray, stride: int, pad: int):
    """Output of one conv and the column matrix its VJP reuses."""
    b, c, h, wd, oc, ic, kh, kw, ho, wo = _conv_geometry(x.shape, w.shape, stride, pad)
    cols = _im2col(x, kh, kw, stride, pad, ho, wo)
    # One matmul per image: some BLAS kernels round a column of one wide
    # (oc, B*ho*wo) product by its width, which would tie an image to its batch.
    prod = np.matmul(w.reshape(oc, -1), cols.reshape(-1, b, ho * wo).transpose(1, 0, 2)).reshape(b, oc, ho, wo)
    return prod + bias[None, :, None, None], cols


def _conv2d_vjp(grad, x, w, stride, pad, need_x, cols):
    """(dx, dw, db) of one conv from its forward's column matrix `cols`; dx
    is None unless `need_x`, else in x's dtype."""
    b, c, h, wd, oc, ic, kh, kw, ho, wo = _conv_geometry(x.shape, w.shape, stride, pad)
    g2 = grad.transpose(1, 0, 2, 3).reshape(oc, b * ho * wo)
    gw = (g2 @ cols.T).reshape(w.shape)
    gb = grad.sum(axis=(0, 2, 3))
    if not need_x:
        return None, gw, gb
    # col2im with the batch innermost, so each slice-add's inner loop runs
    # over B contiguous elements. The matmul keeps gw's (b, i, j) column
    # order, because as a matrix-vector product (C*kh*kw == 1) BLAS rounds a
    # column by its position; one transposed copy then moves b innermost.
    gcols = (w.reshape(oc, -1).T @ g2).reshape(c, kh, kw, b, ho, wo).transpose(0, 1, 2, 4, 5, 3).copy()
    gxp = np.zeros((c, h + 2 * pad, wd + 2 * pad, b), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            # One offset's strided positions are distinct, so the slice-add is exact.
            gxp[:, u : u + stride * ho : stride, v : v + stride * wo : stride] += gcols[:, u, v]
    return gxp[:, pad : pad + h, pad : pad + wd].transpose(3, 0, 1, 2), gw, gb


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


def _sigmoid_eval(vals, *_):
    x = vals[0]
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _matmul_eval(vals, meta, graph, idx):
    a, b = vals
    if a.ndim != b.ndim or a.ndim < 2:
        raise ShapeMismatch(idx, "matmul", f"equal ranks >= 2, lhs rank {a.ndim}", f"rhs rank {b.ndim}")
    if a.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeMismatch(idx, "matmul", a.shape[:-2], b.shape[:-2])
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(idx, "matmul", f"inner dim {a.shape[-1]}", f"inner dim {b.shape[-2]}")
    return np.matmul(a, b)


def _mean_grad(grad, vals, out, meta, *_):
    axis = meta["axis"]
    count = vals[0].size if axis is None else int(np.prod([vals[0].shape[a] for a in axis]))
    return [_spread(grad, vals[0].shape, axis, meta["keepdims"]) / count]


def _logsumexp_eval(vals, meta, *_):
    x = vals[0]
    axis = meta["axis"]
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return out if meta["keepdims"] else np.squeeze(out, axis=axis)


def _logsumexp_grad(grad, vals, out, meta, *_):
    axis = meta["axis"]
    lse = out if meta["keepdims"] else np.expand_dims(out, axis)
    soft = np.exp(vals[0] - lse)
    g = grad if meta["keepdims"] else np.expand_dims(grad, axis)
    return [g * soft]


def _gather_grad(grad, vals, out, meta, *_):
    gx = np.zeros_like(vals[0])
    np.add.at(gx, meta["indices"], grad)
    return [gx]


def _check_square(x: np.ndarray, op: str, idx: int) -> None:
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeMismatch(idx, op, "square matrix", x.shape)


def _zero_diagonal(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    np.fill_diagonal(out, 0)
    return out


def _zero_diagonal_eval(vals, meta, graph, idx):
    _check_square(vals[0], "zero_diagonal", idx)
    return _zero_diagonal(vals[0])


def _diagonal_eval(vals, meta, graph, idx):
    _check_square(vals[0], "diagonal", idx)
    # a copy, so a forward-only graph can free the matrix after this read
    return vals[0].diagonal().copy()


def _diagonal_grad(grad, vals, *_):
    # in the gradient's dtype: a float64 gradient into a float32 matrix
    # keeps its bits until it is summed with the matrix's other gradients
    gx = np.zeros(vals[0].shape, dtype=grad.dtype)
    np.fill_diagonal(gx, grad)
    return [gx]


def _conv2d_eval(vals, meta, graph, idx):
    x, w, b = vals
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch(idx, "conv2d", "(B,C,H,W) and (O,C,kh,kw)", (x.shape, w.shape))
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatch(idx, "conv2d", f"in-channels {w.shape[1]}", f"in-channels {x.shape[1]}")
    out, cols = _conv2d_forward(x, w, b, meta["stride"], meta["pad"])
    if not graph.forward_only:
        graph.saved[idx] = cols
    return out


def _bdc_eval(vals, meta, graph, idx):
    fm = vals[0]
    if fm.ndim != 3:
        raise ShapeMismatch(idx, "bdc", "(B, d, m) feature maps", fm.shape)
    out, dists = _bdc_forward(fm)
    if not graph.forward_only:
        graph.saved[idx] = dists
    return out


# op kind -> (forward, vjp), one entry per interior op.
#   forward(vals, meta, graph, idx): the node's value from its parents'
#     values; it may fill graph.saved[idx] for its VJP, and raises
#     ShapeMismatch naming node idx.
#   vjp(grad, vals, out, meta, needed, saved): one gradient per parent, None
#     where the parent's `needed` flag is off. A unary op is only reached
#     through a needed parent, so only ops with several parents read the flags.
_OPS = {
    "add": (
        lambda vals, *_: vals[0] + vals[1],
        lambda grad, vals, out, meta, needed, saved: [
            _unbroadcast(grad, vals[0].shape) if needed[0] else None,
            _unbroadcast(grad, vals[1].shape) if needed[1] else None,
        ],
    ),
    "sub": (
        lambda vals, *_: vals[0] - vals[1],
        lambda grad, vals, out, meta, needed, saved: [
            _unbroadcast(grad, vals[0].shape) if needed[0] else None,
            _unbroadcast(-grad, vals[1].shape) if needed[1] else None,
        ],
    ),
    "mul": (
        lambda vals, *_: vals[0] * vals[1],
        lambda grad, vals, out, meta, needed, saved: [
            _unbroadcast(grad * vals[1], vals[0].shape) if needed[0] else None,
            _unbroadcast(grad * vals[0], vals[1].shape) if needed[1] else None,
        ],
    ),
    "div": (
        lambda vals, *_: vals[0] / vals[1],
        lambda grad, vals, out, meta, needed, saved: [
            _unbroadcast(grad / vals[1], vals[0].shape) if needed[0] else None,
            _unbroadcast(-grad * vals[0] / (vals[1] * vals[1]), vals[1].shape) if needed[1] else None,
        ],
    ),
    "neg": (lambda vals, *_: -vals[0], lambda grad, *_: [-grad]),
    "exp": (lambda vals, *_: np.exp(vals[0]), lambda grad, vals, out, *_: [grad * out]),
    "log": (lambda vals, *_: np.log(vals[0]), lambda grad, vals, *_: [grad / vals[0]]),
    "relu": (lambda vals, *_: np.maximum(vals[0], 0), lambda grad, vals, *_: [grad * (vals[0] > 0)]),
    "sigmoid": (_sigmoid_eval, lambda grad, vals, out, *_: [grad * out * (1.0 - out)]),
    "sqrt_guard": (
        lambda vals, meta, *_: np.sqrt(np.maximum(vals[0], meta["eps"])),
        lambda grad, vals, out, meta, *_: [np.where(vals[0] > meta["eps"], grad * 0.5 / out, 0.0)],
    ),
    "matmul": (
        _matmul_eval,
        lambda grad, vals, out, meta, needed, saved: [
            np.matmul(grad, np.swapaxes(vals[1], -1, -2)) if needed[0] else None,
            np.matmul(np.swapaxes(vals[0], -1, -2), grad) if needed[1] else None,
        ],
    ),
    "sum": (
        lambda vals, meta, *_: vals[0].sum(axis=meta["axis"], keepdims=meta["keepdims"]),
        lambda grad, vals, out, meta, *_: [_spread(grad, vals[0].shape, meta["axis"], meta["keepdims"]).copy()],
    ),
    "mean": (lambda vals, meta, *_: vals[0].mean(axis=meta["axis"], keepdims=meta["keepdims"]), _mean_grad),
    "logsumexp": (_logsumexp_eval, _logsumexp_grad),
    "reshape": (
        lambda vals, meta, *_: vals[0].reshape(meta["shape"]),
        lambda grad, vals, *_: [grad.reshape(vals[0].shape)],
    ),
    "swap_last2": (lambda vals, *_: np.swapaxes(vals[0], -1, -2), lambda grad, *_: [np.swapaxes(grad, -1, -2)]),
    "gather": (lambda vals, meta, *_: vals[0][meta["indices"]], _gather_grad),
    "zero_diagonal": (_zero_diagonal_eval, lambda grad, *_: [_zero_diagonal(grad)]),
    "diagonal": (_diagonal_eval, _diagonal_grad),
    # _conv2d_vjp is looked up on each call, so a substitute bound to the module is seen
    "conv2d": (
        _conv2d_eval,
        lambda grad, vals, out, meta, needed, saved: list(
            _conv2d_vjp(grad, vals[0], vals[1], meta["stride"], meta["pad"], needed[0], saved)
        ),
    ),
    "bdc": (_bdc_eval, lambda grad, vals, out, meta, needed, saved: [_bdc_vjp(grad, vals[0], *saved)]),
}


# ---------------------------------------------------------------------------
# forward and reverse sweeps


def forward_eval(graph: Graph, feeds: dict[str, np.ndarray] | None = None) -> None:
    """Evaluate all nodes in record order; results are read as `Var.value`.

    Activations stay on the graph for a subsequent backward call, except on
    a forward-only graph, which drops each interior value once its last
    reader has run; a node nothing reads keeps its value.
    """
    feeds = feeds or {}
    unknown = set(feeds) - set(graph.inputs)
    if unknown:
        raise GraphError(f"unknown input names {sorted(unknown)}")
    values = graph.values
    dead = _dead_after(graph) if graph.forward_only else None
    for idx, node in enumerate(graph.nodes):
        if node.parents:
            vals = [values[p] for p in node.parents]
            try:
                values[idx] = _OPS[node.op][0](vals, node.meta, graph, idx)
            except ValueError as exc:
                shapes = [v.shape for v in vals]
                raise ShapeMismatch(idx, node.op, "broadcast-compatible operands", shapes) from exc
            if dead is not None:
                for p in dead[idx]:
                    values[p] = None
        elif node.op == "input":
            if node.name not in feeds:
                raise GraphError(f"missing input {node.name!r}")
            arr = np.asarray(feeds[node.name])
            want = node.meta["shape"]
            if len(arr.shape) != len(want) or any(w is not None and w != a for w, a in zip(want, arr.shape)):
                raise ShapeMismatch(idx, "input:" + str(node.name), want, arr.shape)
            values[idx] = arr


def _dead_after(graph: Graph) -> list[list[int]]:
    """Per node: the interior nodes whose last reader it is."""
    last = {p: idx for idx, node in enumerate(graph.nodes) for p in node.parents}
    dead: list[list[int]] = [[] for _ in graph.nodes]
    for p, idx in last.items():
        if graph.nodes[p].parents:
            dead[idx].append(p)
    return dead


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
    if graph.forward_only:
        raise GraphError("backward on a forward-only graph: it keeps no activations or VJP caches")
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
    values, saved = graph.values, graph.saved
    grads: list[np.ndarray | None] = [None] * len(graph.nodes)
    grads[loss.idx] = np.ones_like(out)
    for idx in range(loss.idx, -1, -1):
        g = grads[idx]
        node = graph.nodes[idx]
        if g is None or not needed[idx] or not node.parents:
            continue
        parents = node.parents
        parent_grads = _OPS[node.op][1](
            g, [values[p] for p in parents], values[idx], node.meta, [needed[p] for p in parents], saved[idx]
        )
        for p_idx, p_grad in zip(parents, parent_grads):
            if p_grad is None:
                continue
            if grads[p_idx] is None:
                grads[p_idx] = p_grad
            else:
                grads[p_idx] = grads[p_idx] + p_grad

    return {
        name: np.zeros_like(graph.values[idx]) if grads[idx] is None else grads[idx]
        for name, idx in graph.params.items()
    }


# ---------------------------------------------------------------------------
# composite helpers


def l2_normalize(x: Var, axis: int = -1, eps: float = SQRT_GUARD_EPS) -> Var:
    norm = (x * x).sum(axis=axis, keepdims=True).sqrt_guard(eps)
    return x / norm

