"""`ca` command-line tool.

Machine-readable JSON on stdout, human diagnostics on stderr. Exit codes:
0 success, 1 domain errors (bad rule numbers, unattainable covers, ...)
or running out of memory, 2 usage errors.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import pickle
import select
import signal
import sys
from pathlib import Path

import numpy as np

from . import boolmin, catalog, heval, measures, rules, search, simulator


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _parse_size(text: str) -> tuple[int, int] | int:
    """RxC for 2D lattices, a bare integer for 1D."""
    if "x" in text:
        r, _, c = text.partition("x")
        try:
            return (int(r), int(c))
        except ValueError:
            raise rules.RuleError(f"bad lattice size {text!r}") from None
    try:
        return int(text)
    except ValueError:
        raise rules.RuleError(f"bad lattice size {text!r}") from None


def _rule_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("rule", help="elem:<n> | moore2d:<bigint> | table:<path>")
    parser.add_argument(
        "--bit-order",
        choices=rules.BIT_ORDERS,
        default="lsb",
        help="bit-significance convention for moore2d numbers",
    )


def _cover_arg(
    parser: argparse.ArgumentParser, help_text: str = "prime-implicant cover strategy"
) -> None:
    parser.add_argument(
        "--cover-mode",
        choices=boolmin.COVER_MODES,
        default="auto",
        help=help_text,
    )


#: Help of --cover-mode where every rule is minimized with `greedy` under `auto`.
_GREEDY_AUTO_HELP = "prime-implicant cover strategy; auto runs as greedy"


def _dynamic_args(parser: argparse.ArgumentParser, runs: int = 30) -> None:
    parser.add_argument("--runs", type=int, default=runs, help="random evolutions to average")
    parser.add_argument(
        "--size", default="100x100", help="lattice size: RxC for Moore rules, N for elementary rules"
    )
    parser.add_argument("--steps", type=int, default=100, help="maximum sampling step")
    parser.add_argument("--density", type=float, default=0.5, help="initial live-cell density")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _check_seed(seed: int) -> int:
    """--seed of a sampling command; numpy seeds cannot be negative."""
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def _dynamic_params(args) -> measures.DynamicParams:
    return measures.DynamicParams(
        runs=args.runs,
        dims=_parse_size(args.size),
        max_steps=args.steps,
        density=args.density,
        seed=_check_seed(args.seed),
    )


def _params_json(params: measures.DynamicParams) -> dict:
    return {
        "runs": params.runs,
        "size": list(params.dims) if not isinstance(params.dims, int) else params.dims,
        "max_steps": params.max_steps,
        "density": params.density,
        "seed": params.seed,
    }


def _vector_json(v: measures.BehaviorVector) -> dict:
    return {
        "stability": v.stability,
        "decrease": v.decrease,
        "growth": v.growth,
        "chaoticity": v.chaoticity,
    }


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: The claim word that ends a worker's part of a call.
_STOP = 0xFFFF_FFFF
_KILLED = "a worker process was killed before it finished"


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _sendable(index: int, ok: bool, value) -> tuple:
    """A worker's (index, ok, value) entry, with a ChildProcessError in
    place of a value that would not unpickle in the parent."""
    try:
        pickle.loads(pickle.dumps(value))
    except Exception as exc:
        what = f"a {type(value).__name__}" if ok else repr(value)
        return index, False, ChildProcessError(f"a worker could not send back {what}: {exc}")
    return index, ok, value


def _serve(tasks, claims: int, results: int) -> None:
    """A worker's loop, one pass per call: read the call's pickled
    (fn, jobs) from `tasks`, run the jobs whose indices it claims from
    `claims` up to a stop word, and write their (index, ok, value) list to
    `results`. After a job raises, the rest of its claims are read but not
    run. Returns at the end of `tasks`, before a call or before any claim:
    mid-call that pipe is readable only once the parent is gone."""
    while True:
        try:
            fn, jobs = pickle.load(tasks)
        except EOFError:
            return
        done, failed = [], False
        while True:
            if select.select([tasks], [], [], 0)[0]:
                return
            word = os.read(claims, 4)
            if len(word) < 4:  # no claim is left and the parent is gone
                return
            index = int.from_bytes(word, "little")
            if index == _STOP:
                break
            if failed:
                continue
            try:
                done.append((index, True, fn(jobs[index])))
            except Exception as exc:
                done.append((index, False, exc))
                failed = True
        _write_all(results, pickle.dumps([_sendable(*entry) for entry in done]))


def _fork_workers(count: int, workers: list, claim_r: int, claim_w: int) -> None:
    """Fork `count` workers that claim jobs from `claim_r`, appending
    (pid, task write end, result read end) to `workers`."""
    for _ in range(count):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
                # Only the parent keeps the write ends of the task and claim
                # pipes and the read ends of the result pipes.
                for fd in (claim_w, task_w, result_r, *(fd for _, *fds in workers for fd in fds)):
                    os.close(fd)
                _serve(open(task_r, "rb"), claim_r, result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        workers.append((pid, task_w, result_r))


def _pool_call(workers: list, claim_w: int, fn, jobs: list) -> list:
    """Every (index, ok, value) entry of one call on `workers`; raises
    ChildProcessError if a worker is gone before it answered."""
    task = pickle.dumps((fn, jobs))
    words = np.arange(len(jobs) + len(workers), dtype="<u4")
    words[len(jobs):] = _STOP  # one per worker, after every job
    entries = []
    try:
        for _, task_w, _ in workers:
            _write_all(task_w, task)
        _write_all(claim_w, words.tobytes())
        for _, _, result_r in workers:
            with open(result_r, "rb", closefd=False) as pipe:
                entries += pickle.load(pipe)
    except (BrokenPipeError, EOFError, pickle.UnpicklingError):
        raise ChildProcessError(_KILLED) from None
    return entries


@contextlib.contextmanager
def _cpu_map():
    """An ordered map that runs its jobs on forked workers, one per CPU
    this process may run on.

    The workers are forked at the first call with two or more jobs, and
    there are no more of them than that call has jobs; they serve every
    later call of the block. Until then, with a single CPU, or on a
    platform without os.fork, it is the builtin map and no process starts.
    Workers are copies of this process, so they import nothing. Each call
    pickles (fn, jobs) once, writes it to every worker's task pipe, and
    writes the job indices as four-byte words to one shared claim pipe; a
    worker reads one word at a time, so each index goes to one worker and
    no worker waits on this process for its next job.

    A job's exception is raised here, the lowest index first; the queued
    jobs are cancelled and the running ones finish. A worker killed by a
    signal (the out-of-memory killer, say) raises ChildProcessError, here
    and at every later call. The block ends after every worker has. If
    this process is killed, its workers exit within one job: they read
    EOF from their task pipes.
    """
    workers: list[tuple[int, int, int]] = []
    claim_w = None

    def cpu_map(fn, jobs):
        nonlocal claim_w
        jobs = list(jobs)
        if claim_w is None:
            count = min(_cpu_count(), len(jobs))
            if count < 2 or not hasattr(os, "fork"):
                return map(fn, jobs)
            claim_r, claim_w = os.pipe()
            try:
                _fork_workers(count, workers, claim_r, claim_w)
            finally:
                os.close(claim_r)
        entries = sorted(_pool_call(workers, claim_w, fn, jobs), key=lambda entry: entry[0])
        for _, ok, value in entries:
            if not ok:
                raise value
        return [value for _, _, value in entries]

    try:
        yield cpu_map
    finally:
        if claim_w is not None:
            os.close(claim_w)
        for _, task_w, result_r in workers:
            os.close(task_w)
            os.close(result_r)
        for pid, _, _ in workers:
            os.waitpid(pid, 0)


# --- subcommands ------------------------------------------------------------

def _cmd_analyze(args) -> int:
    tt = rules.parse_rule_spec(args.rule, args.bit_order)
    profile = heval.rule_profile(tt, args.cover_mode)
    payload = {
        "rule": rules.format_rule_spec(tt),
        "arity": tt.arity,
        "cover_mode": profile.cover_mode,
        "leaves": profile.form.leaf_count,
        "static": _vector_json(measures.static_measure(profile)),
    }
    if args.emit_expr:
        payload["expression"] = profile.form.format()
    if args.emit_mtable:
        payload["mtable"] = profile.mcodes.tolist()
    _emit(payload)
    if args.emit_mtable:
        for i, c in enumerate(payload["mtable"]):
            print(f"{i} -> {c}", file=sys.stderr)
    return 0


def _cmd_static(args) -> int:
    tt = rules.parse_rule_spec(args.rule, args.bit_order)
    me = measures.static_measure(heval.rule_profile(tt, args.cover_mode))
    _emit(
        {
            "rule": rules.format_rule_spec(tt),
            "cover_mode": args.cover_mode,
            "static": _vector_json(me),
        }
    )
    return 0


def _cmd_dynamic(args) -> int:
    tt = rules.parse_rule_spec(args.rule, args.bit_order)
    params = _dynamic_params(args)
    profile = heval.rule_profile(tt, args.cover_mode)
    with _cpu_map() as map_fn:
        md = measures.dynamic_measure(profile, params, map_fn)
    _emit(
        {
            "rule": rules.format_rule_spec(tt),
            "cover_mode": args.cover_mode,
            "params": _params_json(params),
            "dynamic": _vector_json(md),
        }
    )
    return 0


def _cmd_distance(args) -> int:
    tt_a = rules.parse_rule_spec(args.rule, args.bit_order)
    tt_b = rules.parse_rule_spec(args.rule_b, args.bit_order)
    params = _dynamic_params(args)
    payload: dict = {"params": _params_json(params), "cover_mode": args.cover_mode}
    features = []
    with _cpu_map() as map_fn:
        for label, tt in (("a", tt_a), ("b", tt_b)):
            profile = heval.rule_profile(tt, args.cover_mode)
            me = measures.static_measure(profile)
            md = measures.dynamic_measure(profile, params, map_fn)
            payload[label] = {
                "rule": rules.format_rule_spec(tt),
                "static": _vector_json(me),
                "dynamic": _vector_json(md),
                "correlation": measures.correlation(me, md),
            }
            features.append(measures.feature_vector(me, md))
    payload["distance"] = measures.distance(features[0], features[1])
    _emit(payload)
    return 0


def _cmd_simulate(args) -> int:
    tt = rules.parse_rule_spec(args.rule, args.bit_order)
    rng = np.random.default_rng(_check_seed(args.seed))
    if args.seed_pattern is not None:
        lattice = simulator.load_pattern(args.seed_pattern)
        if tt.arity == rules.ELEMENTARY_ARITY:
            if lattice.shape[0] != 1:
                raise simulator.LatticeError(
                    "elementary rules need a single-row seed pattern"
                )
            lattice = lattice[0]
    else:
        lattice = simulator.random_lattice(
            _parse_size(args.size), args.density, rng
        )
    evolution = simulator.evolve(lattice, heval.rule_profile(tt), args.steps)
    flat = lattice.ndim == 1
    # One spacetime row per lattice: its cells in 1D, its column means in 2D.
    spacetime = np.empty(
        (args.steps + 1, lattice.shape[-1]), np.uint8 if flat else np.float64
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    frames, fields = [], []
    for t, (frame, field) in enumerate(itertools.chain([(lattice, None)], evolution)):
        if flat:
            spacetime[t] = frame
            continue
        spacetime[t] = frame.mean(axis=0)
        frames.append(f"frame-{t:04d}.ppm")
        simulator.render_ppm(frame, out / frames[-1], "binary")
        if field is not None:
            fields.append(f"mfield-{t:04d}.ppm")
            simulator.render_ppm(field, out / fields[-1], "mfield")
    simulator.render_ppm(spacetime, out / "spacetime.ppm", "binary" if flat else "gray")
    written = ["spacetime.ppm", *frames, *fields]
    _emit(
        {
            "rule": rules.format_rule_spec(tt),
            "steps": args.steps,
            "seed": args.seed,
            "out": str(out),
            "files": written,
        }
    )
    return 0


def _parse_target(text: str) -> tuple[float, ...]:
    """--target: a JSON array of 8 finite numbers.

    Integers parse as floats, so one too large for a float reads as
    infinite and is rejected like NaN and Infinity.
    """
    message = f"--target must be a JSON array of 8 finite numbers, got {text!r}"
    try:
        values = json.loads(text, parse_int=float)
    except json.JSONDecodeError:
        raise ValueError(message) from None
    if not isinstance(values, list) or len(values) != 8 or any(
        type(v) is not float or not math.isfinite(v) for v in values
    ):
        raise ValueError(message)
    return tuple(values)


def _cmd_search(args) -> int:
    target = measures.GOL_TARGET
    if args.target is not None:
        target = _parse_target(args.target)
    cfg = search.GAConfig(
        pop_size=args.pop,
        generations=args.gens,
        mutation_prob=args.mutation,
        seed=args.seed,
        dyn_runs=args.runs,
        dyn_dims=_parse_size(args.size),
        dyn_max_steps=args.steps,
        dyn_density=args.density,
        keep=args.keep,
        target=target,
    )
    # The catalog is written after the search: check, but do not open, it now.
    out = Path(args.out)
    if not out.parent.is_dir():
        raise ValueError(f"catalog directory {str(out.parent)!r} does not exist")
    if out.is_dir():
        raise ValueError(f"catalog path {args.out!r} is a directory")

    def progress(generation: int, best: catalog.CatalogRecord) -> None:
        fitness = "none" if best.fitness is None else f"{best.fitness:.4f}"
        print(f"generation {generation}: best fitness {fitness}", file=sys.stderr)

    with _cpu_map() as map_fn:
        records = search.run_ga(
            cfg, progress=progress if args.verbose else None, map_fn=map_fn
        )
    catalog.write_catalog(records, args.out)
    _emit(
        {
            "out": args.out,
            "records": len(records),
            "best_fitness": records[0].fitness if records else None,
            "seed": args.seed,
        }
    )
    return 0


def _cmd_validate_h(args) -> int:
    results = heval.validate_h()
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: expected {r.expected}, got {r.actual}", file=sys.stderr)
    _emit(
        {
            "passed": all(r.passed for r in results),
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "expected": r.expected,
                    "actual": r.actual,
                }
                for r in results
            ],
        }
    )
    return 0 if all(r.passed for r in results) else 1


def _cmd_import(args) -> int:
    # Checked before any line is read: a rule number of arity A has 2^A bits,
    # and only elementary and Moore rules have a lattice to sample.
    if not 0 <= args.arity <= rules.MOORE_ARITY:
        raise ValueError(f"--arity must lie in [0, {rules.MOORE_ARITY}], got {args.arity}")
    params = None
    if args.with_dynamic:
        params = _dynamic_params(args)
        simulator.check_lattice(args.arity, params.dims)
    with _cpu_map() as map_fn:
        records = catalog.import_published_rules(
            args.path,
            bit_order=args.bit_order,
            arity=args.arity,
            dynamic_params=params,
            cover_mode=args.cover_mode if args.cover_mode != "auto" else "greedy",
            map_fn=map_fn,
        )
    if args.out is not None:
        catalog.write_catalog(records, args.out)
        _emit({"out": args.out, "records": len(records)})
    else:
        for record in records:
            sys.stdout.write(record.to_json() + "\n")
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ca",
        description="Analyze, measure, simulate, and search binary cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="minimize a rule and report its behavior")
    _rule_args(p)
    _cover_arg(p)
    p.add_argument("--emit-expr", action="store_true", help="include the minimized expression")
    p.add_argument("--emit-mtable", action="store_true", help="include the M-coded table")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("static", help="behavior percentages over the truth table")
    _rule_args(p)
    _cover_arg(p)
    p.set_defaults(func=_cmd_static)

    p = sub.add_parser("dynamic", help="behavior percentages over random evolutions")
    _rule_args(p)
    _cover_arg(p)
    _dynamic_args(p)
    p.set_defaults(func=_cmd_dynamic)

    p = sub.add_parser("distance", help="feature distance between two rules")
    _rule_args(p)
    p.add_argument("rule_b", help="second rule spec")
    _cover_arg(p)
    _dynamic_args(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("simulate", help="evolve a lattice and write PPM images")
    _rule_args(p)
    p.add_argument("--size", default="100x100", help="lattice size, RxC (or N for 1D)")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed-pattern", help="plain-text 0/1 grid used as the initial lattice")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("search", help="genetic search for rules near a target behavior")
    p.add_argument("--pop", type=int, default=20)
    p.add_argument("--gens", type=int, default=5000)
    p.add_argument("--mutation", type=float, default=0.01)
    _dynamic_args(p, runs=10)
    p.add_argument("--keep", type=int, default=1000)
    p.add_argument("--target", help="JSON array of 8 target components")
    p.add_argument("--out", required=True, help="catalog path (JSON lines)")
    p.add_argument("--verbose", action="store_true", help="per-generation progress on stderr")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("validate-h", help="check the 6-valued operator tables")
    p.set_defaults(func=_cmd_validate_h)

    p = sub.add_parser("import", help="decode a file of decimal rule numbers")
    p.add_argument("path", help="one decimal rule number per line")
    p.add_argument("--bit-order", choices=rules.BIT_ORDERS, default="lsb")
    p.add_argument("--arity", type=int, default=rules.MOORE_ARITY)
    p.add_argument("--with-dynamic", action="store_true", help="also sample dynamic measures")
    p.add_argument("--out", help="catalog path; defaults to stdout")
    _cover_arg(p, _GREEDY_AUTO_HELP)
    _dynamic_args(p)
    p.set_defaults(func=_cmd_import)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main call and then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, boolmin.CoverBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
