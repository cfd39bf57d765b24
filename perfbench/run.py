"""The repository's benchmark: one workload per run, over real sockets.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gw-hot --seed 1 --seconds 28 --trace 0

Workloads (``perfbench/spec.json`` holds their parameters):

* ``gw-hot``  -- object gateway, zipfian keys that fit the stripe cache;
* ``gw-cold`` -- object gateway, uniform keys over ~8x the cache;
* ``stripe-stream`` -- full-stripe ``ClusterArray`` writes, then reads;
* ``repair`` -- two data columns down: degraded reads and writes, then
  column rebuilds.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps every layer's entry points and reports the
per-layer metrics instead, with the tracing overhead and the
reconciliation of per-layer self time against op wall time.  Spans of
a traced run are written to ``.perfbench/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any byte that
reads back wrong makes ``correct`` false and the exit code 1; so does,
in a traced run, a ``trace.reconcile_err`` above its tolerance (the
result line is still printed, with ``correct`` about the bytes only).  Without
the program's sources (``src/repro``) next to this directory the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _write_spans(phases, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for phase in phases:
            index = {id(s): i for i, s in enumerate(phase.spans)}
            for s in phase.spans:
                fh.write(json.dumps([
                    phase.name, s.op, s.name, s.layer,
                    index.get(id(s.parent)), s.start, s.end, s.attrs,
                ]) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import report
    from spans import Recorder
    from workloads import Workload

    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    rec = Recorder() if args.trace else None
    work = Workload(spec, args.workload, args.seed, args.seconds, rec)
    asyncio.run(work.run())

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = report.per_layer(work) if args.trace else report.end_to_end(work)
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
        )
    totals = report.totals(work)
    for name in units:
        print(f"{args.workload:>14}  {name:<40} {values[name]:>14.6g} {units[name]}")
    unreconciled = False
    if args.trace:
        err = values["trace.reconcile_err"]
        unreconciled = err > report.RECONCILE_TOLERANCE
        if unreconciled:
            print(
                f"perfbench: per-layer self time misses op wall time by {err:.1%} "
                f"(tolerance {report.RECONCILE_TOLERANCE:.0%})",
                file=sys.stderr,
            )
        _write_spans(
            [p for p in work.phases if p.traced],
            ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl",
        )
    if totals["mismatches"]:
        print(
            f"perfbench: {totals['mismatches']} reads or rebuilds came back wrong",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": totals["mismatches"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }))
    return 1 if totals["mismatches"] or unreconciled else 0


if __name__ == "__main__":
    sys.exit(main())
