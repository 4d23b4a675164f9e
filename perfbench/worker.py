"""Fresh-interpreter worker: runs a slice of one workload through `ca`.

run.py starts it as `python3 worker.py '<job JSON>'` and reads JSON lines
from its stdout: {"ready": ...} once lifelike is imported and the first
command's input is generated (the end of set-up), one {"command": ...}
line per command, and {"done": ...} with the peak resident set size.
Commands call `lifelike.cli.main(argv)` in-process with stdout captured;
each runs in its own temporary directory, which is checked and hashed
outside the timed region and then removed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def digest(stdout: str, workdir: Path) -> str:
    """sha256 over stdout and every file the command wrote, by relative path."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(workdir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_command(main, argv: list[str], workload, size: dict, tmp_root: Path) -> dict:
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        workdir = Path(tmp)
        here = os.getcwd()
        os.chdir(workdir)
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed command, not a failed benchmark
            code = 1
            problems.append(f"uncaught {exc!r}")
        seconds = time.perf_counter() - start
        os.chdir(here)
        stdout = out.getvalue()
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                problems += workload.check(argv, stdout, workdir, size)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"malformed output: {exc!r}")
        result = {"seconds": seconds, "problems": problems, "digest": digest(stdout, workdir)}
        if workload.check_run is not None and not problems:
            result["payload"] = json.loads(stdout)
        return result


def main() -> None:
    job = json.loads(sys.argv[1])
    from lifelike import cli
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    size = workload.sizes[job["size"]]
    seed, index = job["seed"], job["first"]
    argv = workload.argv(seed, index, size)
    emit({"ready": True})
    if job["count"] == 0:
        return

    tracer = missing = None
    if job["trace_path"]:
        from tracer import Tracer, install

        tracer = Tracer()
        missing = install(tracer)
    main_fn = cli.main  # looked up after install, so a traced run calls the wrapper
    tmp_root = Path(job["tmp"])
    spent = 0.0
    done = 0
    while done < job["count"]:
        stop = (
            done
            and done >= job["min_count"]
            and index % workload.cycle == 0
            and spent + spent / done > job["budget_s"]
        )
        if stop:
            break
        if tracer is not None:
            tracer.command = index
        result = run_command(main_fn, argv, workload, size, tmp_root)
        emit({"command": index, "items": workload.items(size), **result})
        spent += result["seconds"]
        done += 1
        index += 1
        argv = workload.argv(seed, index, size)
    if tracer is not None:
        with open(job["trace_path"], "w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    emit({
        "done": True,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "missing": missing,
    })


if __name__ == "__main__":
    main()
