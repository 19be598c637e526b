"""One fresh-interpreter measurement, started by run.py.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds ``mode``:

- "setup": import ``fluoinv.cli`` and stop;
- "run": call ``fluoinv.cli.main(argv)`` once, as the ``fluoinv`` command does;
- "trace": the same with every layer boundary traced (tracer.py);
- "kernel": factorize and solve the Robin Laplacian at ``cells`` directly.

The result records the import time of ``fluoinv.cli``, the wall time of
the call, its exit code and the peak RSS of the process; in trace mode the
spans and counters, in kernel mode the micro-metrics.  Only the standard
library is imported before ``fluoinv.cli`` is timed.
"""

import json
import resource
import sys
import time
from pathlib import Path


def kernel(cells: int, seed: int, factorizations: int = 5, solves: int = 200) -> dict:
    """Median factorization and solve time of the grid's Robin Laplacian."""
    import numpy as np

    from fluoinv.grid import Grid

    splu_s = []
    for _ in range(factorizations):
        ops = Grid(2, cells).operators(1.0)
        t0 = time.perf_counter()
        lu = ops.lu_laplacian()
        splu_s.append(time.perf_counter() - t0)
    rhs = np.random.default_rng(seed).standard_normal((solves, lu.shape[0]))
    solve_s = []
    for b in rhs:
        t0 = time.perf_counter()
        lu.solve(b)
        solve_s.append(time.perf_counter() - t0)
    nnz = int(lu.L.nnz + lu.U.nnz)
    n = int(lu.shape[0])
    return {
        "lu_nnz": nnz,
        "splu_ms": 1e3 * float(np.median(splu_s)),
        "solve_ms": 1e3 * float(np.median(solve_s)),
        # computed, not measured: one pass over L and U (8-byte value plus
        # 4-byte index per nonzero), one read and one write of the n-vector
        "solve_bytes": 12 * nnz + 16 * n,
        "solve_flops": 2 * nnz,
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    mode = spec["mode"]
    t0 = time.perf_counter()
    import fluoinv.cli
    result = {"setup_s": time.perf_counter() - t0, "fluoinv_file": fluoinv.cli.__file__}

    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode in ("run", "trace"):
        cli_main = fluoinv.cli.main  # looked up after install, so traced in trace mode
        t0 = time.perf_counter()
        result["code"] = cli_main(spec["argv"])
        result["run_s"] = time.perf_counter() - t0
    elif mode == "kernel":
        result["kernel"] = kernel(spec["cells"], spec["seed"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
