"""One digest line per benchmark call, to compare two checkouts' output bytes.

    python3 tools/output_digest.py ROOT

imports the package from ROOT/src and runs, in this process, every call of
one pass of both benchmark workloads (``verify-spectrum``, ``deep-export``)
for seeds 1-3, as ``perfbench/run.py`` makes them: 315 calls. Then it runs
the fixed ``EDGE_CALLS`` below, 7 calls on paths no benchmark call takes,
listed as workload ``edge``, seed ``-``. The call lists come from this
script and the ``perfbench/workloads.py`` next to it, so two roots are run
on the same calls. Each call prints one line:

    workload seed index exit_code sha256 argv...

the sha256 covering stdout, a NUL byte, then stderr (UTF-8), and the argv
shell-quoted. A call that raises prints ``crash`` as its exit code and
hashes the exception's type and message instead. ``diff`` of two listings
names every call whose bytes or exit code changed, with its argv.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

WORKLOADS = ("verify-spectrum", "deep-export")
SEEDS = (1, 2, 3)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Paths no benchmark call takes: the delta = 0 warning on stderr; a chain
# scaled by a power of two on the bisection and the dstev routes; dropped
# candidates (exit 3); energies high in the truncated spectrum, matched or
# not.
EDGE_CALLS = (
    ("spectrum", "--model", "rabi", "--delta", "0", "--g-range", "0:0.5:3", "--levels", "2"),
    ("spectrum", "--model", "two-mode", "--sector", "1/2", "--delta", "0",
     "--g-range", "0.1:0.5:3", "--levels", "4"),
    ("spectrum", "--model", "rabi", "--delta", "1", "--g-range", "1e160:2e160:2",
     "--nmax", "200", "--levels", "3"),
    ("spectrum", "--model", "rabi", "--delta", "1", "--g-range", "1e160:2e160:2",
     "--levels", "130"),
    ("solve", "--model", "rabi", "--g", "1e-320", "--degree", "2", "--include-rejected"),
    ("sweep", "--model", "rabi", "--degree", "20", "--g-range", "0.1:0.5:5", "--verify"),
    ("sweep", "--model", "rabi", "--degree", "40", "--g-range", "0.1:0.5:5", "--verify",
     "--include-rejected"),
)


def _digest(main, argv) -> tuple[str, str]:
    raw, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # noqa: BLE001 - a crash is a line, not the end
            code = "crash"
            err.write(f"{type(exc).__name__}: {exc}")
        out.flush()
    data = raw.getvalue()
    out.detach()
    return code, hashlib.sha256(data + b"\0" + err.getvalue().encode()).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write("usage: output_digest.py ROOT\n")
        return 2
    src = Path(argv[0]).resolve() / "src"
    if not (src / "qes_rabi" / "__init__.py").is_file():
        sys.stderr.write(f"output_digest: no qes_rabi package under {src}\n")
        return 2
    sys.path[:0] = [str(src), str(PERFBENCH)]
    from qes_rabi import cli
    from workloads import generate

    for workload in WORKLOADS:
        for seed in SEEDS:
            for index, call in enumerate(generate(workload, seed)):
                code, digest = _digest(cli.main, call.argv)
                print(workload, seed, index, code, digest, shlex.join(call.argv))
    for index, argv in enumerate(EDGE_CALLS):
        code, digest = _digest(cli.main, argv)
        print("edge", "-", index, code, digest, shlex.join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
