"""scripts/convergence_probe.py, the table README's "Known red gate" points
to: it runs, and every rho_n it prints lies in the proven tail interval."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import dyadic_tail_interval

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "convergence_probe.py"


def test_convergence_probe_rho_rows_lie_in_the_tail_interval():
    x, n_max = 0.5, 6
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(SCRIPT), "--x", str(x), "--n-max", str(n_max)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("rho_n ="))
    rows = [line.split() for line in lines[start + 2:] if line.strip()]
    assert [int(row[0]) for row in rows] == list(range(1, n_max + 1))
    for row in rows:
        n, rho = int(row[0]), float(row[1])
        lo, hi = dyadic_tail_interval(x, n)
        assert lo <= rho <= hi, (n, rho, lo)
