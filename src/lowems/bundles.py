"""Observation-bundle files: one recovery problem serialized as ``.npz``.

A bundle holds the per-bin observation vectors, the operator payloads
(sensing stacks for the Gaussian variant, index pairs for sampling), the
noise level, and — when available — the planted truth, so a solve can be
replayed and scored later.  Replay-mode Gaussian operators are written out
block by block on save, and load as stored operators.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .dynamics import DynamicGroundTruth
from .measurement import (
    GaussianOperator,
    ObservationSet,
    SamplingOperator,
    VARIANTS,
)

_FORMAT = 1


def save_bundle(path, obs: ObservationSet) -> None:
    """Write ``obs`` to exactly ``path``, in the layout of ``np.savez``, one
    member at a time; a sensing stack is written block by block from its
    operator, so no stack is copied or, in replay mode, held whole."""
    payload: dict[str, object] = {
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
            payload[f"A_{t}"] = op
        else:
            payload[f"rows_{t}"] = op.rows
            payload[f"cols_{t}"] = op.cols
    if obs.truth is not None:
        payload["true_U"] = obs.truth.U
        payload["true_drift_std"] = np.asarray(obs.truth.drift_std)
        for t, v in enumerate(obs.truth.V_seq):
            payload[f"true_V_{t}"] = v
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:
        for name, value in payload.items():
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                if not isinstance(value, GaussianOperator):
                    np.lib.format.write_array(fh, value)
                    continue
                shape = (value.m, value.n1, value.n2)
                np.lib.format.write_array_header_1_0(
                    fh, {"descr": "<f8", "fortran_order": False, "shape": shape}
                )
                for _, block in value.iter_blocks():
                    fh.write(np.ascontiguousarray(block, dtype="<f8"))
                    del block  # a replayed block is freed before the next one is drawn


def load_bundle(path) -> ObservationSet:
    with np.load(path) as data:
        if int(data["format"]) != _FORMAT:
            raise ValueError(f"unsupported bundle format {int(data['format'])}")
        variant = str(data["variant"])
        if variant not in VARIANTS:
            raise ValueError(f"unknown bundle variant {variant!r}")
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
