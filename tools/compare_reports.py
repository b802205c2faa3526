"""Dump and compare the reports of the benchmark decks and the presets.

    python3 tools/compare_reports.py --dump DIR [--root CHECKOUT]
    python3 tools/compare_reports.py --diff A B [--tol 1e-12]

``--dump`` writes one file per request into DIR: the ``ndde check`` report
of every certify deck request (seeds 1-10 and the held-out 1009) and of the
three presets, the ``ndde picard`` summary of every picard deck request of
the same seeds, and the ``StabilityReport.to_text()`` of every stability
deck request of the same seeds, run as the benchmark runs it
(``stability_experiment`` at h = 0.02 with the request's delta), and the
``ndde simulate --csv`` and ``ndde picard --csv`` runs of the ``section4``
preset: their summaries, then every line of the CSV body as one
``csv.N = LINE`` line, which ``--diff`` compares as text, so any changed
byte fails it.  The two ``LITERALS`` configs, which reach what no deck
does (a history segment before t0, the general form with its d F term),
run through all four: ``check``, ``picard --csv``, ``simulate --csv`` and
the stability run.  After it come the ``WeightedSweep.counts`` of every
sweep the request made, one ``sweep.N.counts.K = accepted refined floor``
line per integrand K (panels accepted whole, panels refined, pieces
accepted at the depth floor), caught by wrapping ``ndde.criteria.WeightedSweep``;
``--diff`` compares them as text, so a changed quadrature decision fails
it.  A check request then gives the size of its binding's two cumulative
tables over [start, tmax]: ``table.g.pieces`` and ``table.drift.pieces``,
the pieces that meet it (caught by wrapping ``ndde.criteria.bind``).  Then come the
quadrature decisions of the operator: one
``operator.refine.CALLER.N = failed pieces`` line per call of its
shared refinement (intervals that failed the first level, pieces
accepted), caught by wrapping ``ndde.operator._refine`` and compared as
text, so a changed refinement of a panel or a drift window fails
``--diff``.  CALLER is ``iterationK`` for a call of the solve's K-th
iteration (K counts the candidates its tables read, by wrapping
``ndde.operator._Tables.state``) or ``residual`` for one of the residual
check (by wrapping ``ndde.cli.residual``), and N numbers the calls of
that caller.  Each
file ends with an ``exit = N`` line.  A stability request also
writes ``STEM.trajectories.txt``: one ``trajectory.LABEL.sha256 = HEX``
line per family member, the SHA-256 of the bytes of its nodes, values
and derivatives, caught by wrapping ``ndde.integrator._drive``;
``--diff`` compares them as text, so any changed trajectory byte fails
it.  Last come the ``REFUSED`` requests, each run through ``cli.main``
on the ``section4`` preset (tmax 20, grid 64) with one line replaced:
their file holds one ``stderr.N = LINE`` line per ``error:`` line (the
config path replaced by the request's name), compared as text, and the
exit code.  The decks come from ``bench/workloads.py``, which is only read.
``--root`` names the source checkout whose ``src/`` and ``bench/`` are
imported (default: the one holding this script), so two commits are
compared by dumping each from its own checkout.

``--diff`` prints, for every numeric key, the largest difference between A
and B and the file where it occurs; then every change of a non-numeric
value (verdicts, exit codes, convergence) but the quadrature decisions;
then, per file whose ``sweep.*.counts`` lines, ``table.*.pieces`` lines,
the solve's ``operator.refine.iteration*`` lines or the residual's
``operator.refine.residual.*`` lines changed, each side's sums over all of
its own lines of that kind (accepted, refined and floor panels; table
pieces; failed intervals and pieces) and both line counts, so that a change in the
number of calls alone leaves the sums equal, and a change of the residual
leaves the solve's decisions unlisted; then every other
key that only one side's files hold, once per key with the number of
files; then, as a separate list,
every argsup that moved, with the sup it locates (an argsup of a sup at
rounding level is arbitrary).  It exits 1 when a file is missing on one
side, a key is held on one side only, a non-numeric value or a quadrature
decision changed, or a numeric value other than an argsup differs by more
than ``--tol``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (*range(1, 11), 1009)
PRESETS = ("section4", "section4-boundary", "section4-bx10")

# constant lags give m = -1 < t0 = 0; the general form has d F != 0 and a
# history segment too
_AUX_HISTORY_RUN = """
[aux]
p = "2/(t + 2)"
g = "0.1/(t + 2)"

[history]
psi = "0.001 + 0*t"

[run]
tmax = "200"
T = "5"
"""
LITERALS = {
    "constant-lag": """[problem]
form = "linear-neutral"
t0 = "0"
gamma = "1/3"
r1 = "1"
r2 = "0.5"
a = "0.5/(t + 1)"
b = "0.05*sin(t)"
c = "0.01/(t + 1)"
G = "sin(x)"
k4 = "1"
""" + _AUX_HISTORY_RUN,
    "general-qf": """[problem]
form = "general"
t0 = "0"
gamma = "1/3"
r1 = "0.3*t"
r2 = "1 + 0*t"
a = "0.5 + 0.1*sin(t)"
c = "0.05 + 0*t"
G = "sin(x)"
k4 = "1"
Q = "0.2*cos(t)*sin(x)"
q_bound = "0.2*abs(cos(t))"
d = "0.1 + 0*t"
F = "0.5*sin(x) - 0.3*y"
k2 = "0.5"
k3 = "0.3"
""" + _AUX_HISTORY_RUN,
}
LITERAL_DELTA = 0.001  # the history size of the literals' stability runs

# requests the CLI refuses: (name, command and flags, replaced config line)
REFUSED = (
    ("grid-63", ["check"], 'grid = "63"'),
    ("grid-over", ["check"], f'grid = "{(1 << 20) + 1}"'),
    ("tmax-0", ["check"], 'tmax = "0"'),
    ("step-negative", ["simulate"], 'step = "-0.1"'),
    ("picard-tol-0", ["picard", "--tol", "0"], None),
    ("picard-tol-nan", ["picard", "--tol", "nan"], None),
    ("T-at-t0", ["simulate", "--T", "0"], None),
    ("simulate-step-budget", ["simulate", "--T", "1e13"], None),
    ("picard-mesh-budget", ["picard", "--T", "1e7"], None),
    ("check-table-budget", ["check", "--tmax", "1e7"], None),
    # by t = 20 the lag sends the delayed argument to m ~ -6.4e17
    ("lag-reach", ["check"], 'r1 = "(0.2*t) + exp(2.05*t)"'),
)


def _refusals():
    """The ``REFUSED`` requests as (file stem, kind, config text, argv)."""
    from ndde.presets import preset_text

    base = preset_text("section4").replace('tmax = "10000"', 'tmax = "20"')
    base = base.replace('grid = "4096"', 'grid = "64"')
    for name, argv, line in REFUSED:
        text = base
        if line:
            key = re.escape(line.split(" = ")[0])
            text = re.sub(rf'^{key} = ".*"$', line, text, count=1, flags=re.M)
        yield f"refused-{name}", "refused", text, argv


def _requests(root: Path):
    """(file stem, kind, config text[, delta]) of every request to dump;
    a stability request carries its history size delta."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from ndde.presets import preset_text

    for name in PRESETS:
        yield f"preset-{name}", "check", preset_text(name)
    for kind in ("simulate", "picard"):
        yield f"preset-section4-{kind}-csv", f"{kind}-csv", preset_text("section4")
    for name, text in LITERALS.items():
        for kind in ("check", "picard-csv", "simulate-csv"):
            yield f"{name}-{kind}", kind, text
        yield f"{name}-stability", "stability", text, LITERAL_DELTA
    for workload in ("certify", "picard", "stability"):
        for seed in SEEDS:
            for request in workloads.deck(workload, seed).requests:
                stem = f"{workload}-s{seed}-{request.name}"
                if workload == "stability":
                    yield stem, request.kind, request.text, request.params["delta"]
                else:
                    yield stem, request.kind, request.text
    yield from _refusals()


def _stability(path: str, delta: float, out, side: Path) -> int:
    """The benchmark's stability run of one config: its report, or one
    ``error:`` line and exit 1.  Writes to ``side`` one
    ``trajectory.LABEL.sha256`` line per family member, over the bytes of
    its nodes, values and derivatives (none when the run fails)."""
    from ndde import NddeError, integrator
    from ndde.config import load_config

    runs, lines = [], []
    drive = integrator._drive

    def recording(*args, **kwargs):
        runs[:] = drive(*args, **kwargs)
        return runs

    integrator._drive = recording
    code = 1
    try:
        cfg = load_config(path)
        report = integrator.stability_experiment(
            cfg.problem, eps=cfg.eps, delta=delta, T=cfg.T, h=0.02
        )
        print(report.to_text(), file=out)
        for label, run in zip(report.labels, runs):
            digest = hashlib.sha256()
            for arr in (run.nodes, run.values, run.derivatives):
                digest.update(arr.tobytes())
            lines.append(f"trajectory.{label}.sha256 = {digest.hexdigest()}\n")
        code = 0
    except NddeError as exc:
        print(f"error: {exc}", file=out)
    finally:
        integrator._drive = drive
        side.write_text("".join(lines), encoding="utf-8")
    return code


def _refused(path: str, argv: list[str], out) -> int:
    """``cli.main`` on the config with ``argv``: each ``error:`` line of
    stderr as ``stderr.N = LINE``; returns the exit code."""
    from ndde import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([argv[0], path, *argv[1:]])
    lines = [line for line in err.getvalue().splitlines() if "error:" in line]
    for n, line in enumerate(lines):
        print(f"stderr.{n} = {line}", file=out)
    return code


def _with_csv(command):
    """A CLI command run with ``--csv``: its summary, then each CSV line as
    ``csv.N = LINE``.  The CSV lands beside the config, so the config path
    replaced in the summary leaves the request's own name."""

    def run(path: str, out) -> int:
        csv = Path(f"{path}.csv")
        code = command(path, csv_path=str(csv), out=out)
        if csv.exists():
            for n, line in enumerate(csv.read_text(encoding="utf-8").splitlines()):
                print(f"csv.{n} = {line}", file=out)
        return code

    return run


def dump(out_dir: Path, root: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    requests = list(_requests(root))
    from ndde import cli, criteria, operator

    sweeps, refines, bound = [], [], []
    caller = ["iteration", 0]  # the refinements' caller, and the candidates read
    made, refine, state, residual = criteria.WeightedSweep, operator._refine, operator._Tables.state, cli.residual
    binding = criteria.bind

    def recording(*args, **kwargs):
        sweeps.append(made(*args, **kwargs))
        return sweeps[-1]

    def binding_of(*args, **kwargs):
        bound.append(binding(*args, **kwargs))
        return bound[-1]

    def refining(*args, **kwargs):
        pieces = refine(*args, **kwargs)
        label = "residual" if caller[0] == "residual" else f"iteration{caller[1]}"
        refines.append((label, f"{len(pieces.passed) - pieces.passed.sum()} {len(pieces.ids)}"))
        return pieces

    def reading(self, z):
        caller[1] += 1
        return state(self, z)

    def checking(result):
        caller[0] = "residual"
        try:
            return residual(result)
        finally:
            caller[0] = "iteration"

    run = {
        "check": cli.run_check,
        "picard": cli.run_picard,
        "stability": lambda path, delta, out: _stability(
            path, delta, out, out_dir / f"{Path(path).stem}.trajectories.txt"
        ),
        "simulate-csv": _with_csv(cli.run_simulate),
        "picard-csv": _with_csv(cli.run_picard),
        "refused": _refused,
    }
    criteria.WeightedSweep, operator._refine, operator._Tables.state, cli.residual = (
        recording, refining, reading, checking
    )
    criteria.bind = binding_of
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for stem, kind, text, *delta in requests:
                path = Path(tmp) / f"{stem}.cfg"
                path.write_text(text, encoding="utf-8")
                buf = io.StringIO()
                sweeps.clear()
                refines.clear()
                bound.clear()
                caller[1] = 0
                with contextlib.redirect_stderr(io.StringIO()):
                    code = run[kind](str(path), *delta, out=buf)
                # the config path is a temporary name; keep the request's own
                lines = [buf.getvalue().replace(str(path), stem).rstrip("\n")]
                for n, sweep in enumerate(sweeps):
                    for k, row in enumerate(sweep.counts.tolist()):
                        lines.append(f"sweep.{n}.counts.{k} = {' '.join(map(str, row))}")
                for b in bound:  # the pieces that meet [start, tmax]
                    for name, table in (("g", b.gexp), ("drift", b.drift_cum)):
                        pieces = bisect.bisect_left(table._nodes, b.tmax)
                        lines.append(f"table.{name}.pieces = {pieces}")
                calls = Counter()
                for label, counts in refines:
                    lines.append(f"operator.refine.{label}.{calls[label]} = {counts}")
                    calls[label] += 1
                lines.append(f"exit = {code}")
                (out_dir / f"{stem}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
                print(f"{stem}: exit {code}", flush=True)
    finally:
        criteria.WeightedSweep, operator._refine, operator._Tables.state, cli.residual = (
            made, refine, state, residual
        )
        criteria.bind = binding
    return 0


def _read(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


# the quadrature decisions, summed per file by ``--diff``: the names of
# their fields, by the key pattern of their lines
_DECISIONS = (
    (re.compile(r"sweep\.\d+\.counts\.\d+"), "sweep counts", ("accepted", "refined", "floor")),
    (re.compile(r"table\.(g|drift)\.pieces"), "table pieces", ("pieces",)),
    (re.compile(r"operator\.refine\.iteration\d+\.\d+"), "operator.refine (solve)", ("failed", "pieces")),
    (re.compile(r"operator\.refine\.residual\.\d+"), "operator.refine (residual)", ("failed", "pieces")),
)


def _is_decision(key: str) -> bool:
    return any(pattern.fullmatch(key) for pattern, *_ in _DECISIONS)


def _decisions(name: str, a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One line per kind of quadrature decision whose lines differ in a
    file (a line held on one side only differs too): the sum of each field
    over all of A's lines and over all of B's, and both line counts."""
    out = []
    for pattern, label, fields in _DECISIONS:
        keys = [[key for key in side if pattern.fullmatch(key)] for side in (a, b)]
        changed = sum(a.get(key) != b.get(key) for key in set(keys[0]) | set(keys[1]))
        if changed:
            sums = [[sum(int(side[key].split()[i]) for key in own) for side, own in zip((a, b), keys)]
                    for i in range(len(fields))]
            text = ", ".join(f"{field} {x} -> {y}" for field, (x, y) in zip(fields, sums))
            out.append(f"{name}: {label} {text} (lines {len(keys[0])} -> {len(keys[1])}, {changed} changed)")
    return out


def diff(a_dir: Path, b_dir: Path, tol: float) -> int:
    a_files = {p.name for p in a_dir.glob("*.txt")}
    b_files = {p.name for p in b_dir.glob("*.txt")}
    bad = False
    for name in sorted(a_files ^ b_files):
        print(f"only in {a_dir if name in a_files else b_dir}: {name}")
        bad = True

    largest: dict[str, tuple[float, str]] = {}
    changes: list[str] = []
    decisions: list[str] = []
    shifts: list[tuple[float, str]] = []
    one_sided: Counter[tuple[Path, str]] = Counter()  # (side, key): files holding it there only
    for name in sorted(a_files & b_files):
        a, b = _read(a_dir / name), _read(b_dir / name)
        one_sided.update(
            (a_dir if key in a else b_dir, key) for key in a.keys() ^ b.keys() if not _is_decision(key)
        )
        decisions += _decisions(name, a, b)
        for key in sorted(a.keys() & b.keys()):
            va, vb = a[key], b[key]
            if _is_decision(key):
                continue
            xa, xb = _number(va), _number(vb)
            if xa is None or xb is None or key.endswith(".sha256"):
                if va != vb:
                    changes.append(f"{name}: {key} {va} -> {vb}")
                continue
            delta = abs(xa - xb)
            if key.endswith("argsup"):
                if delta > 0.0:
                    sup = a.get(key[: -len("argsup")] + "sup", a.get("alpha"))
                    shifts.append((delta, f"{name}: {key} {xa!r} -> {xb!r} (sup {sup})"))
                continue
            if delta >= largest.get(key, (-1.0, ""))[0]:
                largest[key] = (delta, name)

    print(f"largest difference per key ({len(a_files & b_files)} files):")
    for key, (delta, name) in sorted(largest.items()):
        flag = "  EXCEEDS TOL" if delta > tol else ""
        print(f"  {key}: {delta:.3e} ({name}){flag}")
        bad = bad or delta > tol
    print(f"non-numeric changes: {len(changes)}")
    for line in changes:
        print(f"  {line}")
    bad = bad or bool(changes)
    print(f"quadrature decisions changed: {len(decisions)}")
    for line in decisions:
        print(f"  {line}")
    bad = bad or bool(decisions)
    print(f"keys on one side only: {len(one_sided)}")
    for (side, key), files in sorted(one_sided.items()):
        print(f"  only in {side}: {key} ({files} files)")
    bad = bad or bool(one_sided)
    print(f"argsup shifts: {len(shifts)}")
    for delta, line in sorted(shifts, reverse=True):
        print(f"  {delta:.3e}  {line}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", metavar="DIR", type=Path)
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"), type=Path)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to dump from")
    parser.add_argument("--tol", type=float, default=1e-12, help="allowed numeric difference")
    args = parser.parse_args(argv)
    if args.dump is not None:
        return dump(args.dump, args.root.resolve())
    return diff(*args.diff, args.tol)


if __name__ == "__main__":
    sys.exit(main())
