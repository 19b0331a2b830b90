"""Fixture: bounded per-call accumulation (MOS002 clean)."""

import numpy as np


def _dedupe(jobs: list[str]) -> list[str]:
    seen: list[str] = []
    for job in jobs:
        if job not in seen:
            seen.append(job)
    return seen


def _sum_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    # ``np`` is an imported module, not a module-scope collection
    np.add(a, b, out=out)
