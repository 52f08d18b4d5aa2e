"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: explicit
inverses, brute-force loops, grid numerics, fine-step integration. None of it
imports from habdf, so agreement between the two is evidence, not tautology.
The one exception is the row-wise CLI at the end: it checks how ``habdf fuse``
and ``habdf eval`` read, group, score and write, so it reuses the library's
pipeline, config reader and cell formatter, each tested on its own.
"""

import csv
import math

import mpmath
import numpy as np


def naive_predict(mean, cov, A, Rww):
    """Textbook time update with plain matrix products."""
    mean = A @ mean
    cov = A @ cov @ A.T + Rww
    return mean, cov


def naive_update(mean, cov, C, Rvv, y):
    """Textbook measurement update via an explicit matrix inverse."""
    S = C @ cov @ C.T + Rvv
    K = cov @ C.T @ np.linalg.inv(S)
    new_mean = mean + K @ (y - C @ mean)
    new_cov = cov - K @ C @ cov
    return new_mean, new_cov


def dwna_cov(n_axes, dt, accel_var):
    """Discrete white-noise-acceleration covariance, assembled entry by entry."""
    n = 2 * n_axes
    out = np.zeros((n, n))
    for i in range(n_axes):
        out[i, i] = accel_var * dt ** 4 / 4.0
        out[i, n_axes + i] = accel_var * dt ** 3 / 2.0
        out[n_axes + i, i] = accel_var * dt ** 3 / 2.0
        out[n_axes + i, n_axes + i] = accel_var * dt ** 2
    return out


def grid_filter_means(a, q, c, r, m0, p0, ys, lo=-12.0, hi=12.0, n=2401):
    """Scalar Bayes filter on a density grid; returns the posterior means.

    Predict is a convolution with the transition kernel, update a pointwise
    likelihood product. Everything is normalized numerically, so this shares
    no algebra with a Kalman filter beyond the model itself.
    """
    xs = np.linspace(lo, hi, n)
    dx = xs[1] - xs[0]
    dens = np.exp(-0.5 * (xs - m0) ** 2 / p0)
    dens /= dens.sum() * dx
    # transition[i, j] = p(x' = xs[i] | x = xs[j])
    trans = np.exp(-0.5 * (xs[:, None] - a * xs[None, :]) ** 2 / q)
    trans /= trans.sum(axis=0, keepdims=True) * dx
    means = []
    for y in ys:
        dens = trans @ dens * dx
        dens *= np.exp(-0.5 * (y - c * xs) ** 2 / r)
        dens /= dens.sum() * dx
        means.append(float((xs * dens).sum() * dx))
    return np.array(means)


def chi2_quantile_sqrt(dof, confidence):
    """sqrt of the chi-square quantile, via mpmath's regularized gamma CDF."""
    half = mpmath.mpf(dof) / 2

    def cdf(x):
        return mpmath.gammainc(half, 0, mpmath.mpf(x) / 2, regularized=True)

    lo, hi = mpmath.mpf(0), mpmath.mpf(4 * dof + 200)
    for _ in range(200):
        mid = (lo + hi) / 2
        if cdf(mid) < confidence:
            lo = mid
        else:
            hi = mid
    return float(mpmath.sqrt((lo + hi) / 2))


def rk4_second_order(wn, zeta, gain, u_seq, dt, x0, substeps=100):
    """Fine-step RK4 integration of x'' = wn^2 (gain u - x) - 2 zeta wn x'.

    The input is held constant over each coarse sample (same hold the
    discrete plant uses). Returns the output sampled BEFORE each input acts,
    matching a sample-then-step loop.
    """
    h = dt / substeps

    def deriv(state, u):
        x, v = state
        return np.array([v, wn * wn * (gain * u - x) - 2.0 * zeta * wn * v])

    state = np.array(x0, dtype=float)
    out = np.empty(len(u_seq))
    for t, u in enumerate(u_seq):
        out[t] = state[0]
        for _ in range(substeps):
            k1 = deriv(state, u)
            k2 = deriv(state + 0.5 * h * k1, u)
            k3 = deriv(state + 0.5 * h * k2, u)
            k4 = deriv(state + h * k3, u)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


def pairwise_min_distances(vecs):
    """Brute-force nearest-peer distance per row, plain loops and math.sqrt."""
    n = len(vecs)
    out = []
    for i in range(n):
        best = math.inf
        for j in range(n):
            if i == j:
                continue
            d = math.sqrt(sum((vecs[i][k] - vecs[j][k]) ** 2 for k in range(len(vecs[i]))))
            best = min(best, d)
        out.append(best)
    return out


def raster_jaccard(a, b):
    """Exact rasterized IoU for boxes whose edges sit on the integer lattice.

    a, b are (u, v, h, w) with integer centers and even integer sizes, so
    every edge is an integer and unit cells tile both boxes exactly.
    """
    u1, v1, h1, w1 = a
    u2, v2, h2, w2 = b
    lo_x = int(min(u1 - w1 / 2, u2 - w2 / 2))
    hi_x = int(max(u1 + w1 / 2, u2 + w2 / 2))
    lo_y = int(min(v1 - h1 / 2, v2 - h2 / 2))
    hi_y = int(max(v1 + h1 / 2, v2 + h2 / 2))
    xs = np.arange(lo_x, hi_x) + 0.5
    ys = np.arange(lo_y, hi_y) + 0.5
    X, Y = np.meshgrid(xs, ys)

    def inside(u, v, h, w):
        return (np.abs(X - u) < w / 2) & (np.abs(Y - v) < h / 2)

    in_a = inside(u1, v1, h1, w1)
    in_b = inside(u2, v2, h2, w2)
    union = float(np.sum(in_a | in_b))
    if union == 0:
        return 0.0
    return float(np.sum(in_a & in_b)) / union


def wls_mean(prior_mean, prior_cov, C_blocks, R_scales, y_blocks):
    """Posterior mean of a Gaussian prior fused with independent linear
    observations, solved in information form (weighted least squares)."""
    info = np.linalg.inv(prior_cov)
    vec = info @ prior_mean
    for C, s, y in zip(C_blocks, R_scales, y_blocks):
        info = info + C.T @ C / s
        vec = vec + C.T @ y / s
    return np.linalg.solve(info, vec)


def spd_with_cond(rng, n, log_cond, log_scale):
    """Random SPD matrix, eigenvalues spread over 10**[log_scale, log_scale + log_cond]
    with both ends hit, so its condition number is 10**log_cond."""
    Q, _ = np.linalg.qr(rng.normal(0, 1, (n, n)))
    eig = 10.0 ** (log_scale + log_cond * rng.uniform(0, 1, n))
    eig[0], eig[-1] = 10.0 ** log_scale, 10.0 ** (log_scale + log_cond)
    cov = (Q * eig) @ Q.T
    return 0.5 * (cov + cov.T)


def box_jaccard(a, b):
    """Overlap of two (u, v, h, w) boxes in Python floats, formula written out."""
    (pu, pv, ph, pw), (ru, rv, rh, rw) = map(float, a), map(float, b)
    left, right = max(pu - pw / 2, ru - rw / 2), min(pu + pw / 2, ru + rw / 2)
    bottom, top = max(pv - ph / 2, rv - rh / 2), min(pv + ph / 2, rv + rh / 2)
    inter = max(0.0, right - left) * max(0.0, top - bottom)
    union = pw * ph + rw * rh - inter
    return 0.0 if union <= 0.0 else min(1.0, inter / union)


TRACK_COLUMNS = ["frame", "detector_id", "u", "v", "h", "w", "valid"]


def read_boxes_rowwise(path, track):
    """A track log (``track``) or a frame,u,v,h,w file read with
    csv.DictReader and checked one row at a time: a wrong field count on any
    line first, then per row frame, u, v, h, w, side, detector_id, valid,
    order and duplicate. Raises ValueError with habdf's message; returns
    ``(frame, id, box, valid)`` or ``(frame, box)`` tuples."""
    columns = TRACK_COLUMNS if track else ["frame", "u", "v", "h", "w"]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [c for c in columns if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        rows = [(reader.line_num, row) for row in reader]
    for line, row in rows:
        if None in row or None in row.values():
            raise ValueError(f"{path}: row {line}: wrong field count")
    if track and reader.fieldnames != TRACK_COLUMNS:
        raise ValueError(f"{path}: header must be exactly {','.join(TRACK_COLUMNS)}")
    out, last, seen = [], {}, set()
    for line, row in rows:
        def fail(message):
            raise ValueError(f"{path}: row {line}: {message}")
        try:
            frame = int(row["frame"])
        except ValueError:
            fail(f"bad frame value {row['frame']!r}")
        if not -2**63 <= frame < 2**63:
            fail(f"bad frame value {row['frame']!r}")
        box = []
        for k in "uvhw":
            try:
                box.append(float(row[k]))
            except ValueError:
                fail(f"bad {k} value {row[k]!r}")
            if not math.isfinite(box[-1]):
                fail(f"{k} must be finite, got {row[k]!r}")
        if box[2] < 0 or box[3] < 0:
            fail("negative box size")
        if not track:
            if frame in seen:
                fail(f"duplicate frame {frame}")
            seen.add(frame)
            out.append((frame, box))
            continue
        det, valid = row["detector_id"].strip(), row["valid"].strip().lower()
        if not det:
            fail("empty detector_id")
        if valid not in ("true", "false", "1", "0"):
            fail(f"valid must be true/false, got {row['valid']!r}")
        if frame < last.get(det, frame):
            fail(f"frames decrease for detector {det!r}")
        if (frame, det) in seen:
            fail(f"duplicate record for frame {frame}, detector {det!r}")
        seen.add((frame, det))
        last[det] = frame
        out.append((frame, det, box, valid in ("true", "1")))
    return out


def _write_rows(path, header, rows):
    from habdf.records import format_value

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(map(format_value, header)) + "\n")
        for row in rows:
            fh.write(",".join(format_value(c) for c in row) + "\n")


def fuse_rowwise(tracks, config_path, out):
    """``habdf fuse`` row by row: each frame's valid boxes looked up per
    detector in a dict, stepped through make_pipeline in frame order."""
    from habdf.fusion import make_pipeline
    from habdf.records import load_config, tracking_setup_from_config

    records = read_boxes_rowwise(tracks, track=True)
    ids = sorted({det for _, det, _, _ in records})
    model, fusion, init_var = tracking_setup_from_config(load_config(config_path), len(ids))
    pipe = make_pipeline(len(ids), model, fusion, init_var)
    frames = {}
    for frame, det, box, valid in records:
        readings = frames.setdefault(frame, {})
        if valid:
            readings[det] = np.array(box)
    rows = []
    for frame in sorted(frames):
        est = pipe.step([frames[frame].get(det) for det in ids])
        if est is not None:
            rows.append([frame, *(model.C @ est.state.mean), *est.w_d, *est.w_M,
                         *est.rvv_scale])
    header = ["frame", "u", "v", "h", "w"]
    _write_rows(out, header + [f"{n}_{d}" for n in ("wd", "wM", "rvv") for d in ids], rows)


def eval_rowwise(fused, gt, out, summary_out):
    """``habdf eval`` row by row: box_jaccard and the norm of the box
    difference per common frame, success at jaccard >= 0.5 and distance <= 50."""
    fused, gt = dict(read_boxes_rowwise(fused, False)), dict(read_boxes_rowwise(gt, False))
    rows = []
    for frame in sorted(set(fused) & set(gt)):
        j = box_jaccard(fused[frame], gt[frame])
        d = float(np.linalg.norm(np.subtract(fused[frame], gt[frame])))
        rows.append([frame, j, d, j >= 0.5 and d <= 50.0])
    _write_rows(out, ["frame", "jaccard", "distance", "success"], rows)
    cols = list(zip(*rows))
    _write_rows(summary_out, ["approach", "frames", "mean_jaccard", "mean_distance",
                              "success_rate"],
                [["fused", len(rows), float(np.mean(cols[1])), float(np.mean(cols[2])),
                  float(np.mean([1.0 if s else 0.0 for s in cols[3]]))]])


def mp_fused_means(readings, dt, accel_var, meas_var, init_var, xi, omega0, omega, lam, gamma,
                   delta, cov_floor, stale_after, dps=50):
    """The paper's fusion run at ``dps`` significant digits over ``readings``
    (per frame, one (u, v, h, w) box or None per detector); returns each
    frame's fused mean rounded to floats, None before the first reading.

    Each expert is a textbook Kalman filter on the 8-state constant-velocity
    box model: it starts at the first reading with rates 0 and covariance
    ``init_var I``, reopens that covariance on a reading after
    ``stale_after`` silent frames, scores the reading (the last one while
    silent) by ``w_M = 1 / (1 + exp(xi - md))`` and updates on it. Each
    present detector scores ``w_d = omega0 + omega (1 + tanh(d - lam))`` from
    the distance ``d`` of its reading to the nearest other present reading
    (0 alone), and gets the noise ``max(gamma w_d + delta w_M, cov_floor) I``.
    The centre starts at the mean of the present experts' positions, then
    measures each present expert's positions with that noise, in information
    form, so that every inverse it takes is 8x8. An expert's covariance
    follows from its hits and misses since it (re)started alone, so experts
    with one such history share its covariances."""
    with mpmath.workdps(dps):
        mpf, eye = mpmath.mpf, mpmath.eye
        dt, q = mpf(dt), mpf(accel_var)

        def axes(block):  # block (x) I_4
            out = mpmath.zeros(8)
            for i, j, a in np.ndindex(2, 2, 4):
                out[4 * i + a, 4 * j + a] = block[i][j]
            return out

        A = axes([[1, dt], [0, 1]])
        Q = axes([[q * dt**4 / 4, q * dt**3 / 2], [q * dt**3 / 2, q * dt**2]])
        C = mpmath.matrix([[int(a == b) for b in range(8)] for a in range(4)])
        At, Ct, CtC = A.T, C.T, C.T * C
        R, P0 = mpf(meas_var) * eye(4), mpf(init_var) * eye(8)
        xi, omega0, omega, lam = map(mpf, (xi, omega0, omega, lam))
        steps = {(): (P0, None, None)}  # hits since a (re)start -> (P, S^-1, gain)
        experts, centre, fused = [None] * len(gamma), None, []
        for frame in readings:
            ys = [None if y is None else mpmath.matrix([mpf(float(v)) for v in y])
                  for y in frame]
            present = [i for i, y in enumerate(ys) if y is not None]
            rvv, positions = {}, {}
            for i, y in enumerate(ys):
                if experts[i] is None:
                    if y is None:
                        continue
                    experts[i] = (Ct * y, (), y, 0)
                m, hits, last, misses = experts[i]
                if y is not None and misses >= stale_after:
                    hits = ()
                hits += (y is not None,)
                if hits not in steps:
                    P = A * steps[hits[:-1]][0] * At + Q
                    CP = C * P
                    S_inv = mpmath.inverse(CP * Ct + R)
                    K = CP.T * S_inv  # P C^T S^-1, P symmetric
                    steps[hits] = (P - K * CP if hits[-1] else P, S_inv, K)
                _, S_inv, K = steps[hits]
                m = A * m
                r = (last if y is None else y) - C * m
                w_m = 1 / (1 + mpmath.exp(xi - mpmath.sqrt((r.T * S_inv * r)[0])))
                if y is None:
                    experts[i] = (m, hits, last, misses + 1)
                    continue
                m = m + K * r
                experts[i], positions[i] = (m, hits, y, 0), C * m
                d = min((mpmath.norm(y - ys[j]) for j in present if j != i), default=mpf(0))
                w_d = omega0 + omega * (1 + mpmath.tanh(d - lam))
                rvv[i] = max(mpf(gamma[i]) * w_d + mpf(delta[i]) * w_m, mpf(cov_floor))
            if centre is None:
                if not present:
                    fused.append(None)
                    continue
                centre = (Ct * sum((positions[i] for i in present), mpmath.zeros(4, 1))
                          / len(present), P0)
            m, P = centre
            m, P = A * m, A * P * At + Q
            if present:
                info = mpmath.inverse(P)
                vec = info * m
                for i in present:
                    info += CtC / rvv[i]
                    vec += Ct * positions[i] / rvv[i]
                P = mpmath.inverse(info)
                m = P * vec
            centre = (m, P)
            fused.append(np.array([float(v) for v in m]))
        return fused
