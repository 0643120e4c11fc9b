"""Layer-by-layer diff of two traced benchmark runs.

Usage::

    python3 perfbench/diff.py perfbench/out/layers-hits-seed1.json \\
        other/layers-hits-seed1.json

Each file is the layer report a ``--trace 1`` run writes.  For every
per-layer metric the table shows the base and new values, the change,
and new/base; ratio metrics name what they are a ratio of, so a change
can be read against its base.  A performance change can then show
which layer's self time, count or ratio moved, and by how much.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence


def diff_layers(base: Dict[str, Any], new: Dict[str, Any]
                ) -> List[Dict[str, Any]]:
    """One row per metric present in either report, in name order.

    ``delta`` and ``ratio`` (new / base) are ``None`` where a side lacks
    the metric or the base is 0; ``base_of`` is the definition of a
    ratio metric's denominator, when the report gives one.
    """
    old_values, new_values = base["layers"], new["layers"]
    bases = {**base.get("bases", {}), **new.get("bases", {})}
    rows = []
    for name in sorted(set(old_values) | set(new_values)):
        a, b = old_values.get(name), new_values.get(name)
        both = a is not None and b is not None
        rows.append({
            "metric": name, "base": a, "new": b,
            "delta": b - a if both else None,
            "ratio": b / a if both and a else None,
            "base_of": bases.get(name),
        })
    return rows


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def render(rows: Sequence[Dict[str, Any]], base: Dict[str, Any],
           new: Dict[str, Any]) -> str:
    lines = [f"# base: {base.get('workload')} seed {base.get('seed')}"
             f"  new: {new.get('workload')} seed {new.get('seed')}",
             f"{'metric':44s} {'base':>12s} {'new':>12s} {'delta':>12s}"
             f" {'new/base':>9s}"]
    for row in rows:
        lines.append(f"{row['metric']:44s} {_fmt(row['base']):>12s} "
                     f"{_fmt(row['new']):>12s} {_fmt(row['delta']):>12s} "
                     f"{_fmt(row['ratio']):>9s}")
        if row["base_of"]:
            lines.append(f"{'':44s}   = {row['base_of']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="layer report of the base run")
    parser.add_argument("new", help="layer report of the new run")
    args = parser.parse_args(argv)
    with open(args.base, encoding="ascii") as fh:
        base = json.load(fh)
    with open(args.new, encoding="ascii") as fh:
        new = json.load(fh)
    if base.get("workload") != new.get("workload"):
        print(f"diff: workloads differ ({base.get('workload')} vs "
              f"{new.get('workload')})", file=sys.stderr)
        return 2
    print(render(diff_layers(base, new), base, new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
