"""Seeded generator of the benchmark's ``ngvi-problem/1`` workloads.

Every problem is a plain problem file that ``ngvi run`` accepts. The same
workload name, seed and instance always give the same file, byte for byte.

    python3 perfbench/generate.py chain 1 > chain.json
    ngvi run chain.json -o out/
"""

from __future__ import annotations

import json
import sys

import numpy as np


def _vech(matrix: np.ndarray) -> list[float]:
    """Column-major lower triangle, the layout of ``init.matrix_vech``."""
    n = matrix.shape[0]
    return [float(matrix[i, j]) for j in range(n) for i in range(j, n)]


def _quadratic(fid: str, indices, m, p) -> dict:
    return {
        "id": fid,
        "indices": [int(i) for i in indices],
        "phi": {
            "kind": "gaussian_quadratic",
            "m": [float(v) for v in m],
            "P": [[float(v) for v in row] for row in np.asarray(p)],
        },
    }


def _problem(name: str, mean: np.ndarray, prec: np.ndarray, factors: list) -> dict:
    return {
        "schema": "ngvi-problem/1",
        "name": name,
        "dimension": int(mean.shape[0]),
        "init": {"form": "mean_precision", "mean": [float(v) for v in mean], "matrix_vech": _vech(prec)},
        "factors": factors,
        "rule": {"kind": "gauss_hermite", "order": 5, "seed": 0},
        "config": {"max_iters": 100, "rel_tol": 1e-9, "step_scale": 1.0, "jitter": 0.0},
    }


def chain(rng: np.random.Generator, n: int = 200) -> dict:
    """1-D chain smoothing: a convex quartic observation term per variable
    and a Gaussian smoothness term per neighbour pair. The signal is a fixed
    profile, so the seed draws only the observation noise."""
    obs = 2.0 * np.sin(np.arange(n) / 8.0) + rng.normal(0.0, 0.5, n)
    w, k = 4.0, 0.05
    factors = []
    for i in range(n):
        # 0.5 w (x - y)^2 + 0.25 k x^4, as ascending polynomial coefficients
        y = float(obs[i])
        coeffs = [0.5 * w * y * y, -w * y, 0.5 * w, 0.0, 0.25 * k]
        factors.append({"id": f"obs{i}", "indices": [i], "phi": {"kind": "polynomial", "coefficients": coeffs}})
    p = np.array([[1.0, -1.0], [-1.0, 1.0]]) / 0.3**2
    for i in range(n - 1):
        factors.append(_quadratic(f"step{i}", (i, i + 1), (0.0, 0.0), p))
    return _problem(f"chain-{n}", np.zeros(n), np.eye(n), factors)


def range_slam(rng: np.random.Generator, poses: int = 20, landmarks: int = 6, nearest: int = 3) -> dict:
    """2-D range-only SLAM. Variables are pose positions then landmark
    positions, two per point. The path and the landmarks are one fixed map;
    the seed draws the odometry, range and landmark-guess noise. The initial
    mean is dead reckoning from the noisy odometry plus noise, with the
    landmark guesses the priors hold, and the initial precision is the
    prior confidence in each."""
    world = np.random.default_rng([1, 2])
    heading = np.cumsum(world.normal(0.0, 0.35, poses - 1))
    steps = np.stack([np.cos(heading), np.sin(heading)], axis=1)
    path = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    lo, hi = path.min(axis=0) - 2.0, path.max(axis=0) + 2.0
    marks = lo + (hi - lo) * world.random((landmarks, 2))

    # With odometry sd 0.1 the dead reckoning drifts far enough that about
    # one draw in 75 starts from a nearly singular mean Hessian, takes a
    # huge first step and raises IndefiniteHessianError: the hybrid step's
    # known failure on nonconvex problems, which has its own reproducer.
    # At sd 0.05 none of 1150 draws failed, the smallest eigenvalue of the
    # first mean Hessian stayed near 6 in the lowest percentile of draws,
    # and the range factors still make the problem nonconvex.
    odo_sd, range_sd, mark_sd, pose_sd = 0.05, 0.3, 0.2, 0.1
    odometry = steps + rng.normal(0.0, odo_sd, steps.shape)
    mark_guess = marks + rng.normal(0.0, mark_sd, marks.shape)

    def pose(t):
        return (2 * t, 2 * t + 1)

    def mark(j):
        return (2 * (poses + j), 2 * (poses + j) + 1)

    factors = [_quadratic("prior_pose0", pose(0), path[0], np.eye(2) / 0.01**2)]
    for j in range(landmarks):
        factors.append(_quadratic(f"prior_mark{j}", mark(j), mark_guess[j], np.eye(2) / mark_sd**2))
    # odometry 0.5 (p1 - p0 - o)^T W (p1 - p0 - o), written as 0.5 (u - m)^T P (u - m)
    d = np.hstack([-np.eye(2), np.eye(2)])
    p_odo = d.T @ d / odo_sd**2
    for t in range(poses - 1):
        m = np.concatenate([np.zeros(2), odometry[t]])
        factors.append(_quadratic(f"odo{t}", pose(t) + pose(t + 1), m, p_odo))
    for t in range(poses):
        dist = np.linalg.norm(marks - path[t], axis=1)
        for j in np.argsort(dist, kind="stable")[:nearest]:
            phi = {"kind": "nonlinear_range", "distance": float(dist[j] + rng.normal(0.0, range_sd)), "variance": range_sd**2}
            factors.append({"id": f"range{t}_{j}", "indices": [*pose(t), *mark(int(j))], "phi": phi})
    dead_reckoning = np.vstack([path[0], path[0] + np.cumsum(odometry, axis=0)])
    mean = np.concatenate([dead_reckoning.reshape(-1), mark_guess.reshape(-1)])
    mean = mean + rng.normal(0.0, 0.05, mean.shape)
    prec = np.diag(np.concatenate([np.full(2 * poses, pose_sd**-2), np.full(2 * landmarks, mark_sd**-2)]))
    return _problem(f"range-slam-{poses}x{landmarks}", mean, prec, factors)


def logreg(rng: np.random.Generator, d: int = 3, count: int = 300) -> dict:
    """Bayesian logistic regression: one Bernoulli factor per example, all
    over the same d weights, plus a Gaussian prior. The true weights are
    fixed; the seed draws the features and labels."""
    w_true = np.linspace(1.0, -1.0, d)
    features = rng.normal(0.0, 1.0, (count, d))
    labels = (rng.random(count) < 1.0 / (1.0 + np.exp(-features @ w_true))).astype(int)
    idx = list(range(d))
    factors = [_quadratic("prior", idx, np.zeros(d), np.eye(d))]
    for i in range(count):
        phi = {"kind": "logistic_bernoulli", "feature": [float(v) for v in features[i]], "label": int(labels[i])}
        factors.append({"id": f"obs{i}", "indices": idx, "phi": phi})
    return _problem(f"logreg-{d}x{count}", np.zeros(d), np.eye(d), factors)


# workload -> (generator, instances per run). Each workload is a set of
# instances drawn from the seed, so that a per-run average over them does
# not jump with the iteration count of a single draw; the chain takes the
# same number of iterations on every draw and needs one. A workload's
# position here keys its random stream: add new workloads at the end.
WORKLOADS = {"chain": (chain, 1), "range-slam": (range_slam, 8), "logreg": (logreg, 3)}


def generate(workload: str, seed: int, instance: int = 0) -> dict:
    make, _ = WORKLOADS[workload]
    problem = make(np.random.default_rng([seed, instance, list(WORKLOADS).index(workload)]))
    problem["name"] += f"-seed{seed}-{instance}"
    return problem


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4) or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: generate.py {{{','.join(WORKLOADS)}}} SEED [INSTANCE]")
    json.dump(generate(sys.argv[1], *map(int, sys.argv[2:])), sys.stdout)
