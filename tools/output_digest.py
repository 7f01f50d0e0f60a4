"""One digest line per benchmark call, to compare two checkouts' output bytes.

    python3 tools/output_digest.py ROOT

imports the package from ROOT/src and runs, in this process, every call of
one pass of both benchmark workloads (``verify-spectrum``, ``deep-export``)
for seeds 1-3, as ``perfbench/run.py`` makes them: 315 calls. The call lists
come from the ``perfbench/workloads.py`` next to this script, so two roots
are run on the same calls. Each call prints one line:

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
