"""Observation-bundle files: one recovery problem serialized as ``.npz``.

A bundle holds the per-bin observation vectors, the operator payloads
(sensing stacks for the Gaussian variant, index pairs for sampling), the
noise level, and — when available — the planted truth, so a solve can be
replayed and scored later.  Replay-mode Gaussian operators are materialized
on save.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DynamicGroundTruth
from .measurement import (
    GaussianOperator,
    ObservationSet,
    SamplingOperator,
)

_FORMAT = 1


def save_bundle(path, obs: ObservationSet) -> None:
    payload: dict[str, np.ndarray] = {
        "format": np.asarray(_FORMAT),
        "variant": np.asarray(obs.variant),
        "n1": np.asarray(obs.n1),
        "n2": np.asarray(obs.n2),
        "d": np.asarray(obs.d),
        "noise_std": np.asarray(obs.noise_std),
    }
    for t, (op, y_t) in enumerate(zip(obs.ops, obs.y)):
        payload[f"y_{t}"] = np.asarray(y_t)
        if obs.variant == "gaussian":
            stack = op.matrices  # written as it is, never copied
            if stack is None:  # replay: fill one array block by block
                stack = np.empty((op.m, op.n1, op.n2))
                for start, block in op.iter_blocks():
                    stack[start : start + block.shape[0]] = block
            payload[f"A_{t}"] = stack
        else:
            payload[f"rows_{t}"] = op.rows
            payload[f"cols_{t}"] = op.cols
    if obs.truth is not None:
        payload["true_U"] = obs.truth.U
        payload["true_drift_std"] = np.asarray(obs.truth.drift_std)
        for t, v in enumerate(obs.truth.V_seq):
            payload[f"true_V_{t}"] = v
    with open(path, "wb") as fh:  # a file, so that no ".npz" is appended to path
        np.savez(fh, **payload)


def load_bundle(path) -> ObservationSet:
    with np.load(path) as data:
        if int(data["format"]) != _FORMAT:
            raise ValueError(f"unsupported bundle format {int(data['format'])}")
        variant = str(data["variant"])
        n1, n2, d = int(data["n1"]), int(data["n2"]), int(data["d"])
        noise_std = float(data["noise_std"])
        ops, ys = [], []
        for t in range(d):
            y_t = data[f"y_{t}"]
            if variant == "gaussian":
                stack = data[f"A_{t}"]
                ops.append(
                    GaussianOperator(n1, n2, stack.shape[0], matrices=stack)
                )
            else:
                ops.append(
                    SamplingOperator(n1, n2, data[f"rows_{t}"], data[f"cols_{t}"])
                )
            ys.append(y_t)
        truth = None
        if "true_U" in data:
            truth = DynamicGroundTruth(
                U=data["true_U"],
                V_seq=tuple(data[f"true_V_{t}"] for t in range(d)),
                drift_std=float(data["true_drift_std"]),
            )
    return ObservationSet(tuple(ops), tuple(ys), noise_std, truth=truth)
