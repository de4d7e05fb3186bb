"""Generate the Monte Carlo references that cross-check the exact oracle.

    python3 perfbench/make_references.py > perfbench/references.json

An exact-event simulator written with numpy alone, sharing no code with
crosswatch: inspection gaps are Exp(mu), arrivals inside a gap are a
Poisson(lam * gap) count placed uniformly and sorted, and each path's
window integrals of e^{-theta t} y^{A(t)} are summed in closed form over
the stretches between consecutive arrival and inspection epochs (no time
grid, so no grid bias).  Each value is written with its seed, path count
and standard error.  The self-tests hold ``oracle.py`` to these values.
"""

from __future__ import annotations

import json
import sys

import numpy as np

SEED = 20240611
CHUNK = 50_000

CASES = [
    # (model, paths); survival is sampled at FRACTIONS of the mean crossing time
    ({"lambda": 1.0, "marks": {"geometric": {"a": 0.5}}, "obs": {"mu": 1.0, "initial": "zero"}, "threshold": 3}, 400_000),
    ({"lambda": 1.0, "marks": {"pmf": [0.0, 0.5, 0.3, 0.2]}, "obs": {"mu": 1.0, "initial": "zero"}, "threshold": 3}, 400_000),
    ({"lambda": 1.0, "marks": {"geometric": {"a": 0.5}}, "obs": {"mu": 1.0, "initial": "zero"}, "threshold": 50}, 100_000),
    ({"lambda": 1.0, "marks": {"pmf": [0.0, 0.5, 0.3, 0.2]}, "obs": {"mu": 1.0, "initial": "zero"}, "threshold": 60}, 100_000),
]
FRACTIONS = (0.25, 0.5, 1.0, 1.5)
ARGS = (
    {"theta": 1.0, "u": 0.95, "v": 0.97, "w": 0.1, "x": 0.2, "y": 1.0},
    {"theta": 1.0, "u": 0.9, "v": 0.95, "w": 0.1, "x": 0.1, "y": 0.8},
)


def _marks(model: dict, rng, size: int) -> np.ndarray:
    marks = model["marks"]
    if "geometric" in marks:
        return rng.geometric(marks["geometric"]["a"], size=size)
    pmf = np.asarray(marks["pmf"])
    return rng.choice(pmf.size, p=pmf, size=size)


def _scale(args: dict, model: dict) -> dict:
    """Damping per unit of the model's time scale, so large thresholds keep values of order one."""
    scale = model["threshold"] / 3.0
    out = dict(args)
    for key in ("theta", "w", "x"):
        out[key] = args[key] / scale
    for key in ("u", "v"):
        out[key] = args[key] ** (1.0 / scale)
    return out


def simulate(model: dict, n: int, rng, args_list) -> dict:
    """Crossing records and per-path window integrals (G1 part, G2 part) for each argument set."""
    lam, mu, m = model["lambda"], model["obs"]["mu"], model["threshold"]
    level = np.zeros(n, dtype=np.int64)
    tau = np.zeros(n)
    rec = {k: np.zeros(n) for k in ("nu", "a_pre", "a_cross", "tau_pre", "tau_cross")}
    before_pre = [np.zeros(n) for _ in args_list]  # window integral over the benign gaps
    final_gap = [np.zeros(n) for _ in args_list]  # window integral over the crossing gap
    active = np.arange(n)
    wave = 0
    while active.size:
        wave += 1
        start, count = tau[active], active.size
        end = start + rng.exponential(1.0 / mu, size=count)
        arrivals = rng.poisson(lam * (end - start))
        owner = np.repeat(np.arange(count), arrivals)
        offsets = np.concatenate(([0], np.cumsum(arrivals)))
        times = start[owner] + rng.uniform(size=owner.size) * (end - start)[owner]
        times = times[np.lexsort((times, owner))]
        prefix = np.concatenate(([0], np.cumsum(_marks(model, rng, owner.size))))
        new_level = level[active] + prefix[offsets[1:]] - prefix[offsets[:-1]]
        # stretches of constant level: gap start -> first arrival, then each arrival -> next epoch
        has = arrivals > 0
        first_hi = end.copy()
        first_hi[has] = times[offsets[:-1][has]]
        next_hi = np.empty(owner.size)
        next_hi[:-1] = times[1:]
        next_hi[offsets[1:][has] - 1] = end[has]
        seg_owner = np.concatenate((np.arange(count), owner))
        seg_lo = np.concatenate((start, times))
        seg_hi = np.concatenate((first_hi, next_hi))
        seg_level = np.concatenate((level[active], level[active][owner] + prefix[1:] - prefix[offsets[owner]]))
        hit = new_level > m
        for k, args in enumerate(args_list):
            theta, y = args["theta"], args["y"]
            weight = y ** seg_level.astype(float) * (np.exp(-theta * seg_lo) - np.exp(-theta * seg_hi)) / theta
            per_gap = np.bincount(seg_owner, weights=weight, minlength=count)
            before_pre[k][active[~hit]] += per_gap[~hit]
            final_gap[k][active[hit]] = per_gap[hit]
        idx = active[hit]
        rec["nu"][idx] = wave
        rec["a_pre"][idx] = level[idx]
        rec["a_cross"][idx] = new_level[hit]
        rec["tau_pre"][idx] = tau[idx]
        rec["tau_cross"][idx] = end[hit]
        level[active] = new_level
        tau[active] = end
        active = active[~hit]
    parts = []
    for k, args in enumerate(args_list):
        base = (args["u"] ** rec["a_pre"] * args["v"] ** rec["a_cross"]
                * np.exp(-args["w"] * rec["tau_pre"] - args["x"] * (rec["tau_cross"] - rec["tau_pre"])))
        parts.append((base * before_pre[k], base * final_gap[k]))
    rec["parts"] = parts
    return rec


def _stat(values: np.ndarray) -> dict:
    return {"mean": float(values.mean()), "se": float(values.std(ddof=1) / np.sqrt(values.size))}


def main() -> int:
    out = {"generator": "perfbench/make_references.py", "seed": SEED, "cases": []}
    for index, (model, paths) in enumerate(CASES):
        args_list = [_scale(a, model) for a in ARGS]
        rng = np.random.default_rng([SEED, index])
        chunks = [simulate(model, min(CHUNK, paths - start), rng, args_list) for start in range(0, paths, CHUNK)]
        rec = {k: np.concatenate([c[k] for c in chunks]) for k in ("nu", "a_pre", "a_cross", "tau_pre", "tau_cross")}
        mean_cross = float(rec["tau_cross"].mean())
        values = [{"quantity": k, **_stat(v)} for k, v in rec.items()]
        for frac in FRACTIONS:
            t = round(frac * mean_cross, 3)
            for key in ("tau_pre", "tau_cross"):
                values.append({"quantity": f"survival_{key[4:]}", "t": t, **_stat((rec[key] > t).astype(float))})
        for k, args in enumerate(args_list):
            g1 = np.concatenate([c["parts"][k][0] for c in chunks])
            g2 = np.concatenate([c["parts"][k][1] for c in chunks])
            for name, v in (("G1", g1), ("G2", g2), ("G", g1 + g2)):
                values.append({"quantity": name, "args": args, **_stat(v)})
        out["cases"].append({"model": model, "paths": paths, "stream": [SEED, index], "values": values})
        print(f"case {index}: {paths} paths", file=sys.stderr, flush=True)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
