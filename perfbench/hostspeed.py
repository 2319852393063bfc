"""Reference kernels that gauge how fast the host runs at the moment.

The host this benchmark was written on, a 2-vCPU VM on a shared machine,
runs the same code at speeds that change by up to 2x from one second to the
next and hold for seconds to minutes. A run of ``--seconds`` sees a few such
spells, so the raw op times of ten runs of the same code spread by 20 to 30 %.
To take the host's speed out of the timings, each workload times a short
kernel of its own just before and just after every op, and scales the op's
time by ``reference_s / kernel_s``, where ``kernel_s`` is the mean of those
two kernel times and ``reference_s`` the kernel's usual time on the reference
host. The times then read as times on the reference host at its usual speed.

A kernel does the same kind of work as its workload's hot path (Python calls
that build small objects, copies of large complex vectors, or a dense matrix
exponential), using only the interpreter, numpy and scipy, never the
package: a change to the package moves the op times and leaves the kernel's
time alone. Each kernel's inputs are built once, outside the timed call.
Set-up times are scaled the same way by ``StartupKernel``, a fresh
interpreter that imports the package's dependencies but not the package.
"""
from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class _Step:
    lam: float
    kappa: float
    rate: float
    duration: float
    swap: float
    double: float
    role: str = "load"


def _step(lam: float, kappa: float) -> _Step:
    if kappa < 0 or lam <= 0:
        raise ValueError("kappa must be >= 0 and lam > 0")
    g = math.sqrt(lam * lam - kappa * kappa / 16.0)
    t = (math.pi - math.atan(4.0 * g / kappa)) / g if kappa else math.pi / (2.0 * lam)
    e = math.exp(-kappa * t / 4.0)
    return _Step(lam, kappa, g, t, e * (lam / g) * math.sin(g * t), math.exp(-kappa * t / 2.0))


class InterpreterKernel:
    """Per-step parameter records and a six-scalar recursion, in pure Python.

    Matches the recursion path of ``sweep-cli``: a frozen dataclass built per
    step from math calls, then one pass of float arithmetic over the steps.
    """

    reference_s = 0.0084
    STEPS = 2500

    def __init__(self):
        self.lambdas = (1.0e7,) * self.STEPS

    def __call__(self):
        kappa = 0.06e7
        loads = []
        for lam in self.lambdas:
            p = _step(lam, kappa)
            loads.append((p.swap, p.double, kappa * p.swap / (2.0 * p.lam)))
        s = u = p = q = g = gt = 1.0
        for a, b, d in loads:
            s, u, p, q, g, gt = (
                (s + a * u) / 2.0,
                (a * s + b * u + d * gt) / 2.0,
                (p + a * a * q) / 2.0,
                (a * a * p + (b * b + d * d) * q + 2.0 * a * d * g) / 2.0,
                (-a * p + a * b * q - d * g) / 2.0,
                (-a * s + b * u - d * gt) / 2.0,
            )
        return s + u + p + q + g + gt


class VectorKernel:
    """Strided copies and updates of a 2^19-amplitude complex vector.

    Matches ``cluster-dense``, whose time goes to ``single_step_map``: per
    step, a copy of the state, two strided sub-array copies and three strided
    updates, on vectors too large for the caches. The kernel is one such step.
    """

    reference_s = 0.0053
    QUBITS = 18

    def __init__(self):
        rng = np.random.default_rng(0)
        dim = 2 << self.QUBITS
        self.state = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(2 * dim)

    def __call__(self):
        n, j = self.QUBITS, self.QUBITS // 2
        arr = self.state.reshape(1 << (j - 1), 2, 1 << (n - j), 2).copy()
        q0n1 = arr[:, 0, :, 1].copy()
        q1n0 = arr[:, 1, :, 0].copy()
        arr[:, 1, :, 0] = 0.9 * q1n0 - 0.3j * q0n1
        arr[:, 0, :, 1] = 0.8 * q0n1 - 0.3j * q1n0
        arr[:, 1, :, 1] = 0.7 * arr[:, 1, :, 1]
        return float(np.vdot(arr, arr).real)


class MatrixKernel:
    """A Kronecker-built 128 x 128 generator and its dense exponential.

    Matches ``oracle-numeric``, whose time goes to ``build_effective`` and
    ``scipy.linalg.expm`` on matrices of this size and larger.
    """

    reference_s = 0.0090
    QUBITS = 6

    def __call__(self):
        n = self.QUBITS
        low = np.array([[0, 1], [0, 0]], dtype=complex)
        dim = 2 << n
        h = np.zeros((dim, dim), dtype=complex)
        for j in range(1, n + 1):
            pre = np.eye(1 << (j - 1), dtype=complex)
            post = np.eye(1 << (n - j), dtype=complex)
            h += (1.0 + 0.1 * j) * (np.kron(np.kron(np.kron(pre, low), post), low.T)
                                    + np.kron(np.kron(np.kron(pre, low.T), post), low))
        h += -0.05j * np.kron(np.eye(1 << n, dtype=complex), low.T @ low)
        return float(np.abs(scipy.linalg.expm(-1j * h * 0.7)).sum())


class StartupKernel:
    """A fresh interpreter that imports numpy and scipy.linalg.

    Matches ``setup_s``, whose time goes to starting an interpreter and
    importing the package and its dependencies. A set-up probe takes about
    0.5 s in a child process, so the op kernels, timed in the parent around
    it, follow the host's speed during it too loosely; this kernel does the
    same kind of work in a child of its own.
    """

    reference_s = 0.40
    TIMEOUT_S = 120.0

    def __call__(self):
        subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                       check=True, timeout=self.TIMEOUT_S)
