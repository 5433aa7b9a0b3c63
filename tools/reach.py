#!/usr/bin/env python3
"""Reachability audit: which functions under ``src/repro`` do the user paths run?

    python tools/reach.py           # run the paths, check tools/unreached.txt
    python tools/reach.py --write   # run the paths, regenerate tools/unreached.txt

The audit runs a declared list of user paths (:data:`PATHS`): every CLI
verb, each ``examples/*.py``, ``bench/run.py --smoke --trace 1``,
``repro reproduce`` and the ablation benches.  Each command runs in a
subprocess whose working directory (and every path it writes) is one
fresh temporary directory, so nothing is written into the checkout.

A generated ``sitecustomize.py`` on ``PYTHONPATH`` installs a call hook
through ``sys.settrace`` and ``threading.settrace`` in every Python
process the paths start, ``--procs`` node children and bench children
included.  The hook records ``frame.f_code`` and returns ``None``, so no
line events fire; at exit each process writes the code objects it saw
under ``src/repro``.

Every ``def`` under ``src/repro`` is listed from the AST by module and
qualified name (a qualname that repeats in one module, such as a
property's setter, gets ``#2``, ``#3``...).  A function that no path
reached and ``tools/unreached.txt`` does not list fails the check, as
does a listed name that no longer exists.  A listed function that was
reached is printed as stale but does not fail: some branches of the live
fabric depend on timing.  ``--write`` regenerates the file and keeps the
``# note`` written after each entry that stays; an entry whose note starts
``timing:`` stays while its function exists, reached this time or not.
The live ``--procs`` path takes ports that bind when the audit starts.

The audit matches what ran to its ``def`` by first line, so a source
edited while the paths run would list reached functions as unreached:
every ``.py`` under ``src/repro`` is stamped (mtime and size) before and
after the run, and any change refuses the audit without writing or
comparing.

Exit status: 0 when the list holds, 1 when it does not, 2 when a path
failed (its coverage would be incomplete) or a source changed under it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LIST_FILE = ROOT / "tools" / "unreached.txt"

#: ``(relative path, first line, name)`` of one ``def``: what a code
#: object's ``co_filename``, ``co_firstlineno`` and ``co_name`` give.
Site = Tuple[str, int, str]

_REPRO = ["{python}", "-m", "repro"]

#: The user paths, in order; ``{t}`` is the temporary directory,
#: ``{root}`` the checkout, and ``{port}`` / ``{telemetry}`` the first of
#: two free node / telemetry ports (:func:`free_ports`).  Each entry is
#: (accepted exit codes, argv).  Later commands read what earlier ones wrote.
PATHS: List[Tuple[Tuple[int, ...], List[str]]] = [
    # CI's runtime-only step
    ((0,), _REPRO + ["run", "--nodes", "6", "--minutes", "2", "--seed", "1"]),
    ((0,), _REPRO + ["run", "--nodes", "6", "--minutes", "2", "--seed", "1",
                     "--persist", "{t}/runtime-run"]),
    ((0,), _REPRO + ["inspect", "{t}/runtime-run"]),
    ((0,), _REPRO + ["run", "--nodes", "6", "--minutes", "15", "--rate", "2", "--seed", "3",
                     "--checkpoint-every", "2", "--retain", "2", "--persist", "{t}/lc-run",
                     "--journal-every", "20"]),
    ((0,), _REPRO + ["inspect", "{t}/lc-run"]),
    ((0,), _REPRO + ["archive", "inspect", "{t}/lc-run"]),
    ((0,), _REPRO + ["archive", "fetch", "{t}/lc-run", "0", "--stop", "3"]),
    ((0,), _REPRO + ["prune", "{t}/lc-run", "--retain", "1", "--checkpoint-every", "1"]),
    ((0,), _REPRO + ["archive", "inspect", "{t}/lc-run"]),
    ((0,), _REPRO + ["run", "--nodes", "6", "--minutes", "4", "--seed", "1",
                     "--persist", "{t}/paused-run", "--stop-after", "130"]),
    ((0,), _REPRO + ["resume", "{t}/paused-run"]),
    ((0,), _REPRO + ["live", "parity", "--nodes", "4", "--minutes", "4", "--seed", "1",
                     "--block-interval", "20"]),
    # one invocation of every other verb
    ((0,), _REPRO + ["run", "--nodes", "6", "--minutes", "15", "--rate", "2", "--seed", "3",
                     "--checkpoint-every", "2", "--persist", "{t}/prune-run"]),
    ((0,), _REPRO + ["prune", "{t}/prune-run", "--checkpoint-every", "2", "--retain", "2"]),
    ((0,), _REPRO + ["run", "--nodes", "6", "--minutes", "10", "--seed", "1",
                     "--obs", "{t}/obs-a", "--profile"]),
    ((0,), _REPRO + ["run", "--nodes", "6", "--minutes", "10", "--seed", "2",
                     "--obs", "{t}/obs-b"]),
    ((0,), _REPRO + ["live", "run", "--nodes", "3", "--minutes", "3", "--seed", "1",
                     "--base-port", "0"]),
    ((0,), _REPRO + ["live", "run", "--nodes", "2", "--minutes", "3", "--seed", "3",
                     "--procs", "--base-port", "{port}", "--time-scale", "0.05",
                     "--start-lead", "10", "--obs", "{t}/live-obs", "--telemetry", "{telemetry}"]),
    ((0, 1), _REPRO + ["chaos", "run", "--nodes", "5", "--minutes", "4", "--seed", "2",
                       "--adversary", "equivocator=1"]),
    # the sim fabric's partition overlay (simnet.faults.PartitionInjector)
    ((0, 1), _REPRO + ["chaos", "run", "--nodes", "5", "--minutes", "3", "--seed", "2",
                       "--partition", "1:2"]),
    ((0, 1), _REPRO + ["chaos", "run", "--fabric", "live", "--nodes", "4", "--minutes", "3",
                       "--seed", "2", "--adversary", "spammer=1"]),
    ((0,), _REPRO + ["trace", "summary", "{t}/obs-a"]),
    ((0,), _REPRO + ["trace", "export", "--out", "{t}/export.json", "{t}/obs-a"]),
    ((0,), _REPRO + ["trace", "merge", "--out", "{t}/merged.json", "--trace-out",
                     "{t}/merged-trace.json", "{t}/live-obs/node0", "{t}/live-obs/node1"]),
    ((0,), _REPRO + ["trace", "flame", "--out", "{t}/flame.svg", "{t}/obs-a"]),
    ((0,), _REPRO + ["report", "{t}/obs-a"]),
    ((0, 1), _REPRO + ["compare", "{t}/obs-a", "{t}/obs-b"]),
    ((0,), _REPRO + ["top", "{t}/live-obs/node0"]),
    # the examples, the benchmark smoke, the paper gate, the ablations
    *[((0,), ["{python}", str(path)]) for path in sorted((ROOT / "examples").glob("*.py"))],
    ((0,), ["{python}", "{root}/bench/run.py", "--smoke", "--trace", "1",
            "--workdir", "{t}/bench"]),
    ((0,), _REPRO + ["reproduce", "--json", "{t}/reproduction.json"]),
    # The other benches rewrite BENCH_headline.json or write other files.
    ((0,), ["{python}", "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
            *sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_ablation_*.py"))]),
]

#: Seconds one command may take (``repro reproduce`` is ≈145 s untraced).
PATH_TIMEOUT = 900

_SITECUSTOMIZE = '''\
"""Reachability recorder (written by tools/reach.py): record every code object called."""
import atexit, os, sys, threading

_seen = set()
_add = _seen.add


def _hook(frame, event, arg):
    _add(frame.f_code)
    return None


def _dump():
    import tempfile  # a fresh name per process: pids are reused over an audit

    sys.settrace(None)
    prefix = {prefix!r}
    rows = sorted({{
        (code.co_filename[len(prefix):], code.co_firstlineno, code.co_name)
        for code in list(_seen) if code.co_filename.startswith(prefix)
    }})
    handle, name = tempfile.mkstemp(suffix=".tsv", dir={out!r})
    with os.fdopen(handle, "w", encoding="utf-8") as out:
        out.writelines("%s\\t%d\\t%s\\n" % row for row in rows)


atexit.register(_dump)
threading.settrace(_hook)
sys.settrace(_hook)
'''


# -- the listing ----------------------------------------------------------------------


def list_defs(package: Path) -> Dict[str, Site]:
    """``"<path>::<qualname>"`` → site, for every ``def`` under ``package``.

    Paths are relative to ``package``'s parent (``repro/core/pow.py``);
    qualnames follow ``co_qualname`` (``Cls.method``,
    ``outer.<locals>.inner``); a site's line is the first decorator's,
    as ``co_firstlineno`` is.
    """
    found: Dict[str, Site] = {}
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qualname, line, name in _walk(tree, ""):
            key = f"{relative}::{qualname}"
            ordinal = 2
            while key in found:
                key = f"{relative}::{qualname}#{ordinal}"
                ordinal += 1
            found[key] = (relative, line, name)
    return found


def _walk(node: ast.AST, prefix: str) -> Iterable[Tuple[str, int, str]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            line = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield qualname, line, child.name
            yield from _walk(child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, prefix + child.name + ".")
        else:
            yield from _walk(child, prefix)


def stamp_sources(package: Path) -> Dict[str, Tuple[int, int]]:
    """``path`` → ``(mtime_ns, size)`` of every ``.py`` under ``package``."""
    stamps: Dict[str, Tuple[int, int]] = {}
    for path in sorted(package.rglob("*.py")):
        info = path.stat()
        stamps[path.relative_to(package.parent).as_posix()] = (info.st_mtime_ns, info.st_size)
    return stamps


# -- the list file --------------------------------------------------------------------


def read_list(path: Path) -> Dict[str, str]:
    """Entry → its ``# note`` ('' when none); blank and comment lines skipped."""
    entries: Dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry, _, note = line.partition("#")
        entries[entry.strip()] = note.strip()
    return entries


def render_list(unreached: Iterable[str], notes: Dict[str, str]) -> str:
    lines = [
        "# Functions under src/repro that no user path of tools/reach.py runs.",
        "# Regenerate with `python tools/reach.py --write`; a note after `#` is kept.",
    ]
    for entry in sorted(unreached):
        note = notes.get(entry, "")
        lines.append(f"{entry}  # {note}" if note else entry)
    return "\n".join(lines) + "\n"


def compare(
    defs: Dict[str, Site], reached: Set[Site], listed: Iterable[str]
) -> Tuple[List[str], List[str]]:
    """``(failures, stale)``: failures are unreached functions the list
    lacks and listed names that do not exist; stale are listed functions
    that a path reached."""
    listed = set(listed)
    unreached = {key for key, site in defs.items() if site not in reached}
    failures = [f"unreached but not listed: {key}" for key in sorted(unreached - listed)]
    failures += [f"listed but no such function: {key}" for key in sorted(listed - set(defs))]
    stale = sorted((listed & set(defs)) - unreached)
    return failures, stale


# -- running the paths ----------------------------------------------------------------


def free_ports(count: int, start: int = 46350, stop: int = 65536) -> int:
    """The first ``base >= start`` (in steps of ``count``) whose ``count``
    ports from ``base`` on all bind on 127.0.0.1 now."""
    for base in range(start, stop - count + 1, count):
        probes: List[socket.socket] = []
        try:
            for port in range(base, base + count):
                probes.append(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
                probes[-1].bind(("127.0.0.1", port))
        except OSError:
            continue
        finally:
            for probe in probes:
                probe.close()
        return base
    raise RuntimeError(f"no {count} free ports in [{start}, {stop})")


def run_paths(work: Path) -> Tuple[Set[Site], List[str]]:
    """Run every path under ``work``; ``(reached sites, failed commands)``."""
    site_dir, out_dir, scratch = work / "site", work / "records", work / "run"
    for directory in (site_dir, out_dir, scratch):
        directory.mkdir()
    prefix = str(SRC.resolve()) + "/"
    (site_dir / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(prefix=prefix, out=str(out_dir)), encoding="utf-8"
    )
    env = dict(
        os.environ,
        PYTHONPATH=f"{site_dir}:{SRC.resolve()}",
        PYTHONDONTWRITEBYTECODE="1",
    )
    # The two-node --procs run: node ports base, base + 1; telemetry base + 2, + 3.
    port = free_ports(4)
    fields = dict(python=sys.executable, t=scratch, root=ROOT, port=port, telemetry=port + 2)
    failed: List[str] = []
    for accepted, template in PATHS:
        argv = [part.format(**fields) for part in template]
        shown = " ".join(argv[1:]).replace(str(scratch), "$T").replace(str(ROOT) + "/", "")
        start = time.monotonic()
        try:
            done = subprocess.run(
                argv, cwd=scratch, env=env, capture_output=True, text=True,
                timeout=PATH_TIMEOUT, stdin=subprocess.DEVNULL,
            )  # fmt: skip
            code = done.returncode
        except subprocess.TimeoutExpired:
            done, code = None, "timeout"
        print(f"{time.monotonic() - start:7.1f}s  exit {code}  {shown}", flush=True)
        if code not in accepted:
            failed.append(shown)
            if done is not None:
                print((done.stdout + done.stderr)[-2000:], file=sys.stderr)
    reached: Set[Site] = set()
    for record in out_dir.glob("*.tsv"):
        for row in record.read_text(encoding="utf-8").splitlines():
            path, line, name = row.split("\t")
            reached.add((path, int(line), name))
    return reached, failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate tools/unreached.txt")
    args = parser.parse_args(argv)
    defs = list_defs(PACKAGE)
    before = stamp_sources(PACKAGE)
    work = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        reached, failed = run_paths(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = stamp_sources(PACKAGE)
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    if changed:
        print(f"{len(changed)} source file(s) changed during the audit; rerun it:",
              file=sys.stderr)  # fmt: skip
        for path in changed:
            print(f"  {path}", file=sys.stderr)
        return 2
    if failed:
        print(f"{len(failed)} path(s) failed; the audit is incomplete:", file=sys.stderr)
        for shown in failed:
            print(f"  {shown}", file=sys.stderr)
        return 2
    unreached = sorted(key for key, site in defs.items() if site not in reached)
    print(f"{len(defs) - len(unreached)} of {len(defs)} functions under src/repro reached; "
          f"{len(unreached)} unreached")  # fmt: skip
    notes = read_list(LIST_FILE) if LIST_FILE.exists() else {}
    if args.write:
        # Some runs reach a ``timing:`` entry; it stays while its function does.
        timing = {key for key, note in notes.items() if note.startswith("timing:")}
        kept = set(unreached) | (timing & set(defs))
        LIST_FILE.write_text(render_list(kept, notes), encoding="utf-8")
        print(f"wrote {LIST_FILE.relative_to(ROOT)}")
        return 0
    failures, stale = compare(defs, reached, notes)
    for key in stale:
        print(f"stale (reached this time): {key}")
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
