"""The pinned outputs do not depend on which of numpy's SIMD kernels run.

numpy dispatches its pow, exp and log loops (and others) to AVX-512 kernels
where the CPU has them, and those can round differently from the baseline
ones.  The golden file and the verify sha1 pins must hold either way, so
``tests/test_cli_golden.py`` is run again in a fresh process with numpy's
AVX-512 kernels switched off through ``NPY_DISABLE_CPU_FEATURES``.
"""

import os
import pathlib
import subprocess
import sys

import pytest
from numpy._core import _multiarray_umath as umath

import quadbound

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _avx512_dispatched() -> list[str]:
    """The AVX-512 targets numpy dispatches to on this CPU.  Their names
    differ between numpy versions, and naming one that is not dispatched
    makes numpy warn, so they are read from numpy itself."""
    return [name for name in umath.__cpu_dispatch__
            if (name.startswith("AVX512") or name == "X86_V4")
            and umath.__cpu_features__.get(name)]


def test_golden_outputs_hold_without_avx512_kernels():
    names = _avx512_dispatched()
    if not names:
        pytest.skip("numpy dispatches to no AVX-512 kernel here")
    src = str(pathlib.Path(quadbound.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(names),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", "from numpy._core import _multiarray_umath as u; "
         f"print(sorted(n for n in {names!r} if u.__cpu_features__[n]))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert probe.stdout == "[]\n", probe.stderr  # the kernels are off in the child
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_cli_golden.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600)
    assert r.returncode == 0, r.stdout[-3000:] + r.stderr[-3000:]
