"""Child-process side of the benchmark.

run.py starts this script (never imports it) in four modes:

* ``setup``: import ``multiport.cli`` and make the first call of each
  kernel the workload uses, at each of its sizes, on the bunched class
  (n, 0, ..., 0); this builds the kernels' per-n tables.  Prints a JSON
  object with the monotonic time at which that was done, from which the
  parent computes ``setup_s``.
* ``cli``: run one CLI command in-process through ``multiport.cli.main``,
  optionally with spans around the package's public functions.
* ``kernel``: evaluate a sample of classes through
  ``exact_integer_amplitude`` and ``batch_quantum_probability`` and print
  one JSON record per class.
* ``ref``: time a fixed piece of stdlib work that does not use the
  package, from which the parent gauges how fast the host runs just then.

``cli`` and ``kernel`` write their spans and timings to the ``--meta``
file; the program's own output goes to stdout, which the parent points
at a file.  The package is found through ``PYTHONPATH``, which the
parent sets to the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from gate import suppression_q


class Tracer:
    """In-memory spans: [name, parent index, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs_of=None):
        """Return fn wrapped in a span; attrs_of(args, kwargs, result) tags it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, {}]
            self.spans.append(rec)
            self._stack.append(sid)
            rec[2] = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
                if attrs_of is not None:
                    rec[4] = attrs_of(args, kwargs, result)

        return wrapper


def _arrangement_attrs(args, kwargs, result):
    s = tuple(args[0]) if args else tuple(kwargs["s"])
    return {"n": len(s), "q0": suppression_q(s) == 0}


def _enumerate_attrs(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    return {"n": n, "scanned": math.comb(2 * n - 1, n), "classes": len(result or ())}


def _entry_bytes(cache_dir, key) -> int:
    return max((p.stat().st_size for p in Path(cache_dir).glob(f"{key}*")), default=0)


def _cache_load_attrs(args, kwargs, result):
    cache_dir, key = args[:2]
    size = _entry_bytes(cache_dir, key)
    outcome = "hit" if result is not None else ("corrupt" if size else "miss")
    return {"outcome": outcome, "bytes": size}


def _cache_store_attrs(args, kwargs, result):
    return {"bytes": _entry_bytes(args[0], args[1])}


def _dist_attrs(args, kwargs, result):
    return {"kind": args[0] if args else kwargs["kind"]}


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up.

    The package imports names with ``from .x import y``, so a function is
    patched in every module that calls it by that name.  A name a later
    version of the package no longer has is skipped; its metrics read 0.
    """
    import multiport.arrangements as arrangements
    import multiport.cli as cli
    import multiport.cyclotomic as cyclotomic
    import multiport.scattering as scattering
    import multiport.statistics as statistics

    def patch(modules, attr, name, attrs_of=None):
        for mod in modules:
            fn = getattr(mod, attr, None)
            if fn is not None:
                setattr(mod, attr, tracer.wrap(name, fn, attrs_of))

    patch([arrangements, cli, statistics], "enumerate_quantum_classes",
          "arrangements.enumerate_quantum_classes", _enumerate_attrs)
    for attr in ("exact_quantum_probability", "is_suppressed_exact", "exact_integer_amplitude"):
        patch([scattering, statistics, cli], attr, f"scattering.{attr}", _arrangement_attrs)
    patch([scattering, statistics, cli], "batch_quantum_probability",
          "scattering.batch_quantum_probability", _arrangement_attrs)
    patch([cyclotomic.CyclotomicVector], "reduce", "cyclotomic.reduce")
    patch([statistics], "compute_class_row", "statistics.compute_class_row")
    patch([statistics], "class_probability_table", "statistics.class_probability_table")
    patch([statistics], "table1", "statistics.table1")
    patch([statistics], "distribution", "statistics.distribution", _dist_attrs)
    patch([cli], "cache_load", "cli.cache_load", _cache_load_attrs)
    patch([cli], "cache_store", "cli.cache_store", _cache_store_attrs)
    patch([cli], "_payload_to_rows", "cli.rows_decode")
    patch([cli], "compute_class_rows", "cli.compute_class_rows")
    patch([cli], "_emit", "cli.emit")
    patch([cli], "main", "cli.main")


def _write_meta(path: str, meta: dict) -> None:
    Path(path).write_text(json.dumps(meta), encoding="utf-8")


def _import_cli() -> float:
    t0 = time.perf_counter()
    import multiport.cli  # noqa: F401

    return time.perf_counter() - t0


def cmd_setup(ns) -> int:
    import multiport.cli  # noqa: F401
    from multiport import scattering

    kernels = {"exact": scattering.exact_integer_amplitude, "float": scattering.batch_quantum_probability}
    for item in ns.calls:
        kind, _, n = item.partition(":")
        kernels[kind]((int(n),) + (0,) * (int(n) - 1))
    ready_at = time.monotonic()
    import numpy

    print(json.dumps({"ready_at": ready_at, "python": sys.version.split()[0], "numpy": numpy.__version__}))
    return 0


def cmd_ref(ns) -> int:
    """Fixed stdlib work that does not use the package, with a working set
    of a few MB like the workloads': a sort, a dict of tuples, a JSON round
    trip and Fraction sums.  Prints its own time."""
    from fractions import Fraction

    t0 = time.perf_counter()
    xs = sorted((i * 2654435761) % 1000003 for i in range(300000))
    index = {(xs[i] % 977, i % 131): i for i in range(0, len(xs), 3)}
    doc = json.loads(json.dumps([{"a": i, "b": str(i), "c": [i, i + 1]} for i in range(40000)]))
    acc = sum((Fraction(i % 7 + 1, i % 11 + 1) for i in range(1, 3000)), Fraction(0))
    ref_s = time.perf_counter() - t0
    print(json.dumps({"ref_s": ref_s, "check": len(index) + len(doc) + acc.denominator}))
    return 0


def cmd_cli(ns) -> int:
    import_s = _import_cli()
    import multiport.cli as cli

    tracer = Tracer()
    if ns.trace:
        install_tracer(tracer)
    code = cli.main(ns.argv)
    sys.stdout.flush()
    _write_meta(ns.meta, {"import_s": import_s, "spans": tracer.spans})
    return code


def cmd_kernel(ns) -> int:
    import_s = _import_cli()
    from multiport import scattering

    tracer = Tracer()
    if ns.trace:
        install_tracer(tracer)
    sample = json.loads(Path(ns.sample).read_text(encoding="utf-8"))
    for rep in sample:
        s = tuple(rep)
        t0 = time.perf_counter()
        z = scattering.exact_integer_amplitude(s)
        t1 = time.perf_counter()
        p = scattering.batch_quantum_probability(s)
        t2 = time.perf_counter()
        print(json.dumps({"s": list(s), "z": str(z), "p": repr(p),
                          "exact_ms": (t1 - t0) * 1e3, "float_ms": (t2 - t1) * 1e3}))
    sys.stdout.flush()
    _write_meta(ns.meta, {"import_s": import_s, "spans": tracer.spans})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    ps = sub.add_parser("setup")
    ps.add_argument("calls", nargs="*", help="kernel:n pairs, e.g. exact:10 float:11")
    pc = sub.add_parser("cli")
    pc.add_argument("--trace", type=int, choices=(0, 1), required=True)
    pc.add_argument("--meta", required=True)
    pc.add_argument("argv", nargs=argparse.REMAINDER)
    pk = sub.add_parser("kernel")
    pk.add_argument("--trace", type=int, choices=(0, 1), required=True)
    pk.add_argument("--meta", required=True)
    pk.add_argument("--sample", required=True)
    sub.add_parser("ref")
    ns = parser.parse_args(argv)
    if ns.mode == "cli" and ns.argv[:1] == ["--"]:
        ns.argv = ns.argv[1:]
    return {"setup": cmd_setup, "cli": cmd_cli, "kernel": cmd_kernel, "ref": cmd_ref}[ns.mode](ns)


if __name__ == "__main__":
    sys.exit(main())
