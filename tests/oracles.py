"""Literal-loop reference implementations shared by the tests.

Each oracle restates its formula term by term and shares no code with the
package, so comparing against one checks the package's vectorized graph
form against the definition. `subset_terms` evaluates the one production
builder of the contrastive terms, shared by training and the partition
search, on fixed embeddings so tests can compare the two, and
`sample_episode_oracle` is the literal per-class-scan episode sampler.
`conv2d_oracle` is the convolution and its VJP, one multiply-add per
output position, kernel tap and channel, and `col2im_slice_add_oracle` its
input gradient in the (B, C)-major slice-add order it had first, which the
package must match byte for byte. `augment_views_oracle` is the view
augmentation with its bilinear sample as three-array fancy indexing, and
`resize_bilinear_oracle` the resize as the separable row and column
gather it was before both went through one sampler.
`bdc_vjp_oracle` is the BDC matrix's VJP term by term, and
`bdc_chain_graph` is the BDC matrix as the chain of primitive graph ops it
was built from before it became one op, and `contrastive_maps_eye_graph`
the contrastive maps as they were built before the diagonal ops, with
(n, n) identity masks as graph constants.
"""

import math

import numpy as np

from metabdc.core import Graph, forward_eval
from metabdc.data import Episode
from metabdc.ssl import _contrastive_maps, _subset_sums


def unit_rows(gen: np.random.Generator, n: int, p: int) -> np.ndarray:
    z = gen.normal(size=(n, p))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _literal_loss(za, zb, members, theta, tau):
    total = 0.0
    for i in members:
        num = np.exp(float(za[i] @ zb[i]) * theta / tau)
        den = 0.0
        for j in members:
            if j != i:
                den += np.exp(float(za[i] @ za[j]) * theta / tau)
        for j in members:
            den += np.exp(float(za[i] @ zb[j]) * theta / tau)
        total += -np.log(num / den)
    return total


def contrastive_oracle(za, zb, members, theta, tau):
    """Subset contrastive loss with dummy scale theta, summed term by term:
    each member's positive is its other view; its denominator runs over the
    subset in view A except itself plus the whole subset in view B."""
    return float(_literal_loss(za, zb, members, theta, tau))


def complex_theta_grad(za, zb, members, tau):
    """Complex-step derivative of the literal subset loss over theta at 1."""
    h = 1e-20
    return float(np.imag(_literal_loss(za, zb, members, 1.0 + 1j * h, tau)) / h)


def _literal_weighted_loss(za, zb, w, theta, tau):
    """Membership-weighted summed loss: sample i counts with weight w[i],
    and each denominator term with the weight of the sample it comes from."""
    total = 0.0
    for i in range(len(za)):
        den = 0.0
        for j in range(len(za)):
            if j != i:
                den += w[j] * np.exp(float(za[i] @ za[j]) * theta / tau)
        for j in range(len(za)):
            den += w[j] * np.exp(float(za[i] @ zb[j]) * theta / tau)
        total += w[i] * (np.log(den) - float(za[i] @ zb[i]) * theta / tau)
    return total


def weighted_partition_objective(za, zb, w1, lambda2, tau):
    """Partition relaxation at membership weights w1 and 1 - w1: per subset,
    the weighted mean loss + lambda2 * (weighted mean theta-derivative)^2,
    the derivative taken by complex step at theta = 1."""
    h = 1e-20
    total = 0.0
    for w in (np.asarray(w1, dtype=float), 1.0 - np.asarray(w1, dtype=float)):
        mass = sum(w)
        loss = _literal_weighted_loss(za, zb, w, 1.0, tau)
        deriv = np.imag(_literal_weighted_loss(za, zb, w, 1.0 + 1j * h, tau)) / h
        total += loss / mass + lambda2 * (deriv / mass) ** 2
    return float(total)


def subset_terms(za, zb, members, tau) -> tuple[float, float]:
    """(summed loss, squared summed theta-derivative) of one subset from the
    production builder, its rows weighted 1 and all others 0."""
    n = len(za)
    w = np.zeros(n)
    w[np.asarray(members)] = 1.0
    g = Graph()
    maps = _contrastive_maps(g.constant(za), g.constant(zb), tau)
    _, loss, grad_theta = _subset_sums(maps, g.constant(w), n, tau)
    penalty = grad_theta * grad_theta
    forward_eval(g)
    return float(loss.value), float(penalty.value)


def conv2d_oracle(x, w, b, stride, pad, grad):
    """Zero-padded, strided cross-correlation of x (B, C, H, W) with
    w (O, C, kh, kw) plus bias b, and its VJP at the output gradient `grad`:
    (y, dx, dw, db). Taps that fall in the padding read zero, so they are
    skipped rather than padded."""
    nb, nc, h, wd = x.shape
    no, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    y = np.zeros((nb, no, ho, wo))
    dx, dw, db = np.zeros(x.shape), np.zeros(w.shape), np.zeros(b.shape)
    for n in range(nb):
        for o in range(no):
            for i in range(ho):
                for j in range(wo):
                    acc = float(b[o])
                    g = float(grad[n, o, i, j])
                    db[o] += g
                    for c in range(nc):
                        for u in range(kh):
                            for v in range(kw):
                                r, q = i * stride + u - pad, j * stride + v - pad
                                if 0 <= r < h and 0 <= q < wd:
                                    acc += float(x[n, c, r, q]) * float(w[o, c, u, v])
                                    dx[n, c, r, q] += g * float(w[o, c, u, v])
                                    dw[o, c, u, v] += g * float(x[n, c, r, q])
                    y[n, o, i, j] = acc
    return y, dx, dw, db


def col2im_slice_add_oracle(grad, x_shape, x_dtype, w, stride, pad):
    """dx of a conv in its first vectorized form: the column gradient in
    (C, kh, kw, B, ho, wo) order, scattered by kh*kw slice-adds into a
    zeroed (B, C, H + 2 pad, W + 2 pad) buffer, offset (u, v) by offset."""
    nb, nc, h, wd = x_shape
    no, _, kh, kw = w.shape
    ho, wo = grad.shape[2:]
    g2 = grad.transpose(1, 0, 2, 3).reshape(no, nb * ho * wo)
    gcols = (w.reshape(no, -1).T @ g2).reshape(nc, kh, kw, nb, ho, wo)
    gxp = np.zeros((nb, nc, h + 2 * pad, wd + 2 * pad), dtype=x_dtype)
    for u in range(kh):
        for v in range(kw):
            window = gxp[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride]
            window += gcols[:, u, v].transpose(1, 0, 2, 3)
    return gxp[:, :, pad : pad + h, pad : pad + wd]


def augment_views_oracle(images, config, rng):
    """`ssl.augment_views` with its bilinear sample in its first form: each
    of the four neighbours gathered by (batch, row, column) fancy indexing,
    the next row and column clamped to the last one by `np.minimum`."""
    images = np.asarray(images)
    b, h, w = images.shape
    gen = rng.generator()
    batch = np.arange(b)[:, None, None]
    rows = (np.arange(h) - (h - 1) / 2.0)[None, :, None]
    cols = (np.arange(w) - (w - 1) / 2.0)[None, None, :]
    yy, xx = np.meshgrid(np.linspace(-1.0, 1.0, h), np.linspace(-1.0, 1.0, w), indexing="ij")
    n = min(h, w)
    views = []
    for _view in range(2):
        side = np.clip(np.round(np.sqrt(gen.uniform(*config.crop_scale, size=b)) * n), 1, n).astype(np.int64)
        top = gen.integers(0, h - side + 1)[:, None, None]
        left = gen.integers(0, w - side + 1)[:, None, None]
        side = side[:, None, None]
        angle = gen.uniform(-config.rotation, config.rotation, size=b)[:, None, None]
        cos, sin = np.cos(angle), np.sin(angle)
        src_r = (cos * rows - sin * cols + h / 2.0) * (side / h) - 0.5 + top
        src_c = (sin * rows + cos * cols + w / 2.0) * (side / w) - 0.5 + left
        src_r = np.clip(src_r, 0.0, h - 1.0)
        src_c = np.clip(src_c, 0.0, w - 1.0)
        r0 = np.floor(src_r).astype(np.int64)
        c0 = np.floor(src_c).astype(np.int64)
        fr = src_r - r0
        fc = src_c - c0
        r1 = np.minimum(r0 + 1, h - 1)
        c1 = np.minimum(c0 + 1, w - 1)
        upper = images[batch, r0, c0] * (1 - fc) + images[batch, r0, c1] * fc
        lower = images[batch, r1, c0] * (1 - fc) + images[batch, r1, c1] * fc
        out = upper * (1 - fr) + lower * fr
        out = out * gen.uniform(*config.gain, size=b)[:, None, None] + gen.uniform(*config.bias, size=b)[:, None, None]
        if config.ramp > 0:
            amp = gen.uniform(0.0, config.ramp, size=b)[:, None, None]
            turn = gen.uniform(0.0, 2.0 * np.pi, size=b)[:, None, None]
            out = out + amp * (np.cos(turn) * xx + np.sin(turn) * yy)
        views.append(out.astype(images.dtype))
    return views[0], views[1]


def resize_bilinear_oracle(img, out_h, out_w):
    """`imageops.resize_bilinear` in its separable form: per-axis source
    coordinates, their low and high neighbours clamped by `np.minimum`, and
    the four corners gathered by row, then column, indexing."""
    h, w = img.shape
    if (out_h, out_w) == (h, w):
        return img.copy()

    def axis_coords(n_in, n_out):
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.int64)
        return lo, np.minimum(lo + 1, n_in - 1), src - lo

    r0, r1, rf = axis_coords(h, out_h)
    c0, c1, cf = axis_coords(w, out_w)
    top = img[r0][:, c0] * (1 - cf)[None, :] + img[r0][:, c1] * cf[None, :]
    bot = img[r1][:, c0] * (1 - cf)[None, :] + img[r1][:, c1] * cf[None, :]
    out = top * (1 - rf)[:, None] + bot * rf[:, None]
    return out.astype(img.dtype, copy=False)


def aucm_oracle(scores, labels, a, b, alpha, margin, p_hat=None):
    """AUC-margin loss from its closed form, one score at a time: squared
    deviations of positives from a and negatives from b, a dual term alpha
    on the margin between class means, and -p(1-p) alpha^2; a class absent
    from the batch drops its conditional terms."""
    pos = [float(s) for s, y in zip(scores, labels) if y == 1]
    neg = [float(s) for s, y in zip(scores, labels) if y == 0]
    p = p_hat if p_hat is not None else len(pos) / (len(pos) + len(neg))
    loss = 2.0 * alpha * margin * p * (1.0 - p) - p * (1.0 - p) * alpha * alpha
    if pos:
        loss += (1.0 - p) * sum((s - a) ** 2 for s in pos) / len(pos)
        loss -= 2.0 * alpha * (1.0 - p) * sum(pos) / len(pos)
    if neg:
        loss += p * sum((s - b) ** 2 for s in neg) / len(neg)
        loss += 2.0 * alpha * p * sum(neg) / len(neg)
    return loss


def bdc_oracle(x) -> np.ndarray:
    """Double-centered channel distance matrix of one (d, m) map in float64,
    term by term: guarded distance between channel rows k and l over the m
    positions, minus its row and column means, plus the grand mean."""
    x = np.asarray(x, dtype=np.float64)
    d, m = x.shape
    hat = np.zeros((d, d))
    for k in range(d):
        for l in range(d):
            s = sum((float(x[k, j]) - float(x[l, j])) ** 2 for j in range(m))
            hat[k, l] = math.sqrt(max(s, 1e-12))
    rm = [sum(hat[k, l] for l in range(d)) / d for k in range(d)]
    cm = [sum(hat[k, l] for k in range(d)) / d for l in range(d)]
    gm = sum(rm) / d
    out = np.zeros((d, d))
    for k in range(d):
        for l in range(d):
            out[k, l] = hat[k, l] - rm[k] - cm[l] + gm
    return out


def bdc_vjp_oracle(x, grad, sq) -> np.ndarray:
    """Gradient into one (d, m) map of sum(grad * bdc_oracle(x)), in float64,
    term by term, differentiated at the (d, d) squared channel distances
    `sq` that a forward computed (a Gram-matrix forward rounds them
    differently from summing squared differences)."""
    x = np.asarray(x, dtype=np.float64)
    d, m = x.shape
    # out[k, l] = hat[k, l] - row mean k - column mean l + grand mean
    row = [sum(float(grad[k, l]) for l in range(d)) / d for k in range(d)]
    col = [sum(float(grad[k, l]) for k in range(d)) / d for l in range(d)]
    grand = sum(row) / d
    g_hat = [[float(grad[a, b]) - row[a] - col[b] + grand for b in range(d)] for a in range(d)]
    out = np.zeros((d, m))
    for a in range(d):
        for b in range(d):
            s = float(sq[a, b])
            if s <= 1e-12:  # clamped: sqrt(max(s, eps)) has derivative 0 here
                continue
            g_sq = g_hat[a][b] * 0.5 / math.sqrt(s)
            for j in range(m):
                # s = sum_j (x[a, j] - x[b, j])^2
                out[a, j] += g_sq * 2.0 * (x[a, j] - x[b, j])
                out[b, j] -= g_sq * 2.0 * (x[a, j] - x[b, j])
    return out


def bdc_chain_graph(g: Graph, fmaps, d: int):
    """(B, d, m) maps -> (B, d, d) BDC matrices from primitive graph ops: the
    Gram matrix, its diagonal by an identity mask, squared distances, the
    guarded root and the double centring, one node per step."""
    gram = fmaps @ fmaps.swap_last2()
    eye = g.constant(np.eye(d))
    diag = (gram * eye).sum(axis=2)
    sq_dist = diag.reshape((-1, d, 1)) + diag.reshape((-1, 1, d)) - 2.0 * gram
    hat = sq_dist.sqrt_guard()
    row = hat.mean(axis=2, keepdims=True)
    col = hat.mean(axis=1, keepdims=True)
    grand = hat.mean(axis=(1, 2), keepdims=True)
    return hat - row - col + grand


def contrastive_maps_eye_graph(g: Graph, za, zb, n: int, tau: float):
    """(M_den, M_num, s_pos) nodes of n samples' two views, the diagonal
    dropped from exp(S_aa / tau) and picked from S_ab by multiplying with
    constant (n, n) identity masks."""
    s_aa = za @ za.swap_last2()
    s_ab = za @ zb.swap_last2()
    eye = np.eye(n)
    exp_aa = (s_aa / tau).exp() * g.constant(1.0 - eye)
    exp_ab = (s_ab / tau).exp()
    m_den = exp_aa + exp_ab
    m_num = exp_aa * s_aa + exp_ab * s_ab
    s_pos = (s_ab * g.constant(eye)).sum(axis=1)
    return m_den, m_num, s_pos


def prototype_oracle(mats, labels) -> dict[int, np.ndarray]:
    """Per class label, the element-wise mean of its matrices, summed one
    matrix at a time."""
    protos = {}
    for c in sorted({int(l) for l in labels}):
        members = [np.asarray(m, dtype=np.float64) for m, l in zip(mats, labels) if int(l) == c]
        total = np.zeros_like(members[0])
        for m in members:
            total = total + m
        protos[c] = total / len(members)
    return protos


def score_oracle(queries, protos) -> np.ndarray:
    """(Q, N) scores, one entry at a time: the negated squared Frobenius
    distance of query q and prototype n."""
    out = np.zeros((len(queries), len(protos)))
    for qi, q in enumerate(queries):
        for ni, p in enumerate(protos):
            q64, p64 = np.asarray(q, dtype=np.float64), np.asarray(p, dtype=np.float64)
            out[qi, ni] = -sum(float(v) ** 2 for v in (q64 - p64).ravel())
    return out


def sample_episode_oracle(split, spec, rng) -> Episode:
    """The episode sampler as first written: one full scan of the split's
    label array for the class list, then one more per chosen class."""
    labels = [int(v) for v in split.labels(spec.label_space)]
    classes = sorted(set(labels))
    if spec.n_way > len(classes):
        raise ValueError(f"{spec.n_way}-way episode over only {len(classes)} classes")
    gen = rng.generator()
    chosen = [classes[i] for i in gen.choice(len(classes), size=spec.n_way, replace=False)]
    support, query = [], []
    need = spec.k_shot + spec.q_query
    for c in chosen:
        pool = [row for row, label in enumerate(labels) if label == c]
        if len(pool) < need:
            raise ValueError(f"class {c} has {len(pool)} images, episode needs {need}")
        picks = gen.choice(len(pool), size=need, replace=False)
        support.extend(pool[i] for i in picks[: spec.k_shot])
        query.extend(pool[i] for i in picks[spec.k_shot :])
    return Episode(np.array(support), np.array(query), tuple(chosen))
