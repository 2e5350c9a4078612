"""Digest the CLI's output on a fixed set of invocations, to compare two source trees.

Usage: python3 tools/cli_digest.py SRC_DIR

Imports qcollide from SRC_DIR and runs, in one process: the bench argvs of
``bench/workloads.py``'s WORKLOADS at workload seeds 1 and 5, the CASES of
``tests/test_golden.py``, one three-ancilla JSON run, 20 bad inputs that exit 2
with the CLI's own messages (four of them a p past 1 or NaN, which the collision
unitary names), two ``--help`` texts, and nine runs at the edges where the trace
distance of a lone |+> and its parity mirror must equal that of a stepped ± pair
(p of 0 and 1, w_g below 1/2 and at 1, long runs), and three runs at the edge of the
inverted-population warning, where the excited weight 1 - w_g equals or passes w_g
(w_g of 0.5, 0, and 0.49999999999999994, whose excited weight rounds to 0.5):
151 invocations in all. Prints one line per invocation: sha256 of stdout, sha256
of stderr, exit code and argv. The invocations come from this checkout, so
two trees are compared with
``diff <(python3 tools/cli_digest.py A/src) <(python3 tools/cli_digest.py B/src)``.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 5)
EXTRA = [["trajectory", "--p", "0.62", "--ancillas", "3", "--seed", "11", "--collisions", "800",
          "--restrict-system-ancilla", "--format", "json"]] + [line.split() for line in """
markovian --p-grid 0:1:1e-12
orbit --p-grid 0:1e300:1e-300
orbit --p-grid 1:0:0.1
markovian --p 0.5 --p-grid 0:1:0.5
markovian --p-grid 0:1:0.001 --collisions 2000
trajectory --p 0.5 --collisions 0
trajectory --p 0.5 --collisions 10 --window 5:50
orbit --p 0.5 --collisions 10 --window 5:50
trajectory --p 0.5 --window a:b
trajectory --p 0.5 --ancillas 4
trajectory --p 0.5 --seed 3
trajectory --p 0.5 --ancillas 2 --seed -1
trajectory --p 0.5 --wg 1.5
markovian --p 0.5 --backflow-tol nan
markovian --collisions 5
orbit --p 0.2 --p 0.3
orbit --p-grid 0.9:1.2:0.1 --collisions 5
orbit --p-grid 0.98:1.5:0.01 --collisions 3
orbit --p nan
trajectory --p 1.0000000000000002 --ancillas 3 --seed 1
trajectory --help
markovian --help
trajectory --p 0.3 --ancillas 2 --seed 5 --collisions 400 --restrict-system-ancilla --wg 0.6
trajectory --p 0.9 --ancillas 3 --seed 2 --collisions 400 --wg 0.3
trajectory --p 1 --ancillas 3 --seed 4 --collisions 200
trajectory --p 0 --collisions 50
trajectory --p 1 --collisions 50 --format json
trajectory --p 0.37 --collisions 3000 --wg 0.55
markovian --p 0 --p 1 --collisions 100
markovian --p 0.37 --p 0.99 --wg 0.3 --collisions 3000 --format json
trajectory --p 0.25 --ancillas 2 --seed 9 --collisions 1000 --wg 1
markovian --p 0.5 --wg 0.5 --collisions 5
trajectory --p 0.5 --wg 0 --collisions 5
trajectory --p 0.5 --wg 0.49999999999999994 --collisions 5
""".strip().splitlines()]


def main(src: str) -> int:
    sys.dont_write_bytecode = True  # leave bench/ and tests/ as they are
    sys.path[:0] = [src, str(ROOT / "bench"), str(ROOT / "tests")]
    import qcollide.cli
    import test_golden
    import workloads

    if not Path(qcollide.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"cli_digest: imported {qcollide.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    argvs = [argv for seed in SEEDS for w in workloads.WORKLOADS.values() for argv in w.argvs(seed)]
    for argv in argvs + list(test_golden.CASES.values()) + EXTRA:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qcollide.cli.main(argv)
        digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
        print(*digests, code, " ".join(argv))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
