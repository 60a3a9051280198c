"""Command-line front end: tables, distributions, verification, caching.

Subcommands

* classes: per-quantum-class probability table
* table1:  event/class census with suppression counts for n = 2..n_max
* table2:  nonsuppressed classes and exact enhancements (n <= 6)
* dist:    occupied-ports, port-occupancy, or classical-classes distribution
* verify:  oracle and invariant sweep, exit 1 on any failure
* ck:      phase-class histogram of one arrangement

Exit codes: 0 ok, 1 verification failure, 2 invalid arguments,
3 resource/exact-arithmetic limit, 4 unusable cache.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import statistics as stats
from .arrangements import (
    dihedral_orbit,
    enumerate_arrangements,
    enumerate_quantum_classes,
    validate_arrangement,
)
from .errors import CacheCorruptionError, InvalidArrangementError, ResourceLimitError
from .scattering import (
    EXACT_AMPLITUDE_LIMIT,
    EXACT_KERNEL_TAG,
    FLOAT_ZERO_SCALE,
    batch_quantum_probability,
    ck_decomposition,
    is_suppressed_exact,
    permanent_naive,
    permanent_ryser,
    random_unitary,
    suppression_Q,
    verify_gamma_shift,
)

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "MULTIPORT_CACHE_DIR"

DEFAULT_FLOAT_CAP = 14
DEFAULT_EXACT_CAP = 12
DEFAULT_VERIFY_CAP = 8

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_CACHE = 4


@dataclass(frozen=True)
class RunConfig:
    n: int
    mode: str
    format: str
    output: Path | None
    jobs: int
    tolerance: float
    cache_dir: Path | None
    kind: str | None = None
    variant: str = "marginal"


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_arrangement(s) -> str:
    return ",".join(str(x) for x in s)


def _fmt_enhancement(e) -> str:
    if isinstance(e, Fraction):
        return str(e)
    return _fmt_float(e)


# ---------------------------------------------------------------------------
# result cache


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def cache_key(kind: str, n: int, mode: str, extra: str = "") -> str:
    """Entry name; exact entries also name the kernel that computed them."""
    if mode == "exact":
        mode = f"exact-{EXACT_KERNEL_TAG}"
    tail = f"_{extra}" if extra else ""
    return f"v{SCHEMA_VERSION}_{kind}_n{n}_{mode}{tail}"


def cache_load(cache_dir: Path, key: str) -> dict | None:
    """Return the cached payload, or None when absent/stale/corrupted.

    A bad checksum or schema mismatch is reported on stderr and treated as
    a miss; the caller recomputes and overwrites.
    """
    path = _cache_path(cache_dir, key)
    if not path.is_file():
        return None
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        payload = entry["payload"]
        stored = entry["checksum"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"warning: unreadable cache entry {path}: {exc}", file=sys.stderr)
        return None
    if entry.get("schema_version") != SCHEMA_VERSION:
        return None
    digest = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
    if digest != stored:
        print(f"warning: checksum mismatch in {path}, recomputing", file=sys.stderr)
        return None
    return payload


def cache_store(cache_dir: Path, key: str, payload: dict) -> None:
    """Write an entry to a temp file beside it, then os.replace it into place.

    A crash or a concurrent reader thus sees the previous entry or the new
    one, never a partial file; on failure the temp file is removed.
    """
    tmp = cache_dir / f".{key}.{os.getpid()}.tmp"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
        entry = {
            "schema_version": SCHEMA_VERSION,
            "checksum": digest,
            "payload": payload,
        }
        tmp.write_text(json.dumps(entry, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, _cache_path(cache_dir, key))
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise CacheCorruptionError(f"cannot write cache under {cache_dir}: {exc}") from exc


def _resolve_cache_dir(arg: str | None) -> Path | None:
    if arg:
        return Path(arg)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


# ---------------------------------------------------------------------------
# class-table computation (the one place a worker pool is used)


def _pool_class_row(args):
    rep, orbit_size, exact, tolerance = args
    return stats.compute_class_row(rep, orbit_size, exact, tolerance)


def compute_class_rows(n: int, exact: bool, jobs: int, tolerance: float):
    classes = enumerate_quantum_classes(n)
    tasks = [(c.representative, c.orbit_size, exact, tolerance) for c in classes]
    if jobs > 1:
        chunk = max(1, len(tasks) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_pool_class_row, tasks, chunksize=chunk))
    else:
        rows = [_pool_class_row(t) for t in tasks]
    return stats.class_probability_table(n, exact=exact, rows=rows)


def _rows_to_payload(rows) -> list[dict]:
    out = []
    for r in rows:
        enh: dict
        if isinstance(r.enhancement, Fraction):
            enh = {"num": r.enhancement.numerator, "den": r.enhancement.denominator}
        else:
            enh = {"value": r.enhancement}
        out.append(
            {
                "representative": list(r.representative),
                "orbit_size": r.orbit_size,
                "Q": r.Q,
                "suppressed_exact": r.suppressed_exact,
                "p_classical_num": r.p_classical.numerator,
                "p_classical_den": r.p_classical.denominator,
                "p_quantum": r.p_quantum,
                "enhancement": enh,
            }
        )
    return out


def _payload_to_rows(payload: list[dict]):
    rows = []
    for item in payload:
        enh = item["enhancement"]
        if "num" in enh:
            enhancement = Fraction(enh["num"], enh["den"])
        else:
            enhancement = enh["value"]
        rows.append(
            stats.ClassProbabilityRow(
                representative=tuple(item["representative"]),
                orbit_size=item["orbit_size"],
                Q=item["Q"],
                suppressed_exact=item["suppressed_exact"],
                p_classical=Fraction(item["p_classical_num"], item["p_classical_den"]),
                p_quantum=item["p_quantum"],
                enhancement=enhancement,
            )
        )
    return rows


def class_rows_cached(config: RunConfig, exact: bool):
    """Class rows for config.n, going through the cache when one is set."""
    mode = "exact" if exact else "float"
    key = cache_key("classes", config.n, mode, extra=f"tol{config.tolerance:g}")
    if config.cache_dir is not None:
        payload = cache_load(config.cache_dir, key)
        if payload is not None:
            return stats.class_probability_table(config.n, exact=exact, rows=_payload_to_rows(payload))
    rows = compute_class_rows(config.n, exact, config.jobs, config.tolerance)
    if config.cache_dir is not None:
        cache_store(config.cache_dir, key, _rows_to_payload(rows))
    return rows


# ---------------------------------------------------------------------------
# emission


def _emit(config: RunConfig, text: str) -> None:
    if config.output is None:
        sys.stdout.write(text)
    else:
        config.output.write_text(text, encoding="utf-8")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(n: int, mode: str, kind: str, rows: list[dict], **extra) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "n": n, "mode": mode, "kind": kind, **extra, "rows": rows}
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_classes(config: RunConfig) -> int:
    exact = config.mode in ("exact", "both")
    rows = class_rows_cached(config, exact=exact)
    if config.mode == "both":
        # exact verdicts plus the float-path probability column
        float_rows = class_rows_cached(config, exact=False)
        float_q = {r.representative: r.p_quantum for r in float_rows}
        merged = []
        for r in rows:
            merged.append(
                stats.ClassProbabilityRow(
                    representative=r.representative,
                    orbit_size=r.orbit_size,
                    Q=r.Q,
                    suppressed_exact=r.suppressed_exact,
                    p_classical=r.p_classical,
                    p_quantum=float_q[r.representative],
                    enhancement=r.enhancement,
                )
            )
        rows = merged
    if config.format == "csv":
        header = [
            "representative",
            "orbit_size",
            "Q",
            "suppressed_exact",
            "p_classical_num",
            "p_classical_den",
            "p_quantum",
            "enhancement",
        ]
        body = [
            [
                _fmt_arrangement(r.representative),
                str(r.orbit_size),
                str(r.Q),
                "" if r.suppressed_exact is None else str(r.suppressed_exact).lower(),
                str(r.p_classical.numerator),
                str(r.p_classical.denominator),
                _fmt_float(r.p_quantum),
                _fmt_enhancement(r.enhancement),
            ]
            for r in rows
        ]
        _emit(config, _csv_text(header, body))
    else:
        _emit(config, _json_text(config.n, config.mode, "classes", _rows_to_payload(rows)))
    return EXIT_OK


def cmd_table1(config: RunConfig) -> int:
    exact = config.mode in ("exact", "both")
    rows = stats.table1(config.n, exact=exact)
    header = ["n", "n_total", "n_class", "n_quantum", "n_law", "n_supp"]
    if config.format == "csv":
        body = [
            [
                str(r.n),
                str(r.total),
                str(r.classical_classes),
                str(r.quantum_classes),
                str(r.law_suppressed),
                "requires exact mode" if r.anomalous_suppressed is None else str(r.anomalous_suppressed),
            ]
            for r in rows
        ]
        _emit(config, _csv_text(header, body))
    else:
        payload = [
            {
                "n": r.n,
                "n_total": r.total,
                "n_class": r.classical_classes,
                "n_quantum": r.quantum_classes,
                "n_law": r.law_suppressed,
                "n_supp": r.anomalous_suppressed,
            }
            for r in rows
        ]
        _emit(config, _json_text(config.n, config.mode, "table1", payload))
    return EXIT_OK


def cmd_table2(config: RunConfig) -> int:
    rows = class_rows_cached(config, exact=True)
    alive = [r for r in rows if not r.suppressed_exact]
    alive.sort(key=lambda r: (-r.enhancement, r.representative))
    if config.format == "csv":
        header = ["representative", "orbit_size", "enhancement"]
        body = [
            [_fmt_arrangement(r.representative), str(r.orbit_size), _fmt_enhancement(r.enhancement)]
            for r in alive
        ]
        _emit(config, _csv_text(header, body))
    else:
        payload = [
            {
                "representative": list(r.representative),
                "orbit_size": r.orbit_size,
                "enhancement": {
                    "num": r.enhancement.numerator,
                    "den": r.enhancement.denominator,
                },
            }
            for r in alive
        ]
        _emit(config, _json_text(config.n, "exact", "table2", payload))
    return EXIT_OK


def cmd_dist(config: RunConfig) -> int:
    exact = config.mode in ("exact", "both")
    rows = class_rows_cached(config, exact=exact)
    table = stats.distribution(config.kind, config.n, rows=rows, exact=exact, variant=config.variant)
    if config.format == "csv":
        header = ["category", "classical", "quantum", "approx"]
        body = [
            [label, _fmt_float(c), _fmt_float(q), _fmt_float(a)]
            for label, c, q, a in table.rows
        ]
        _emit(config, _csv_text(header, body))
    else:
        payload = [
            {"category": label, "classical": c, "quantum": q, "approx": a}
            for label, c, q, a in table.rows
        ]
        _emit(
            config,
            _json_text(config.n, config.mode, table.kind, payload, variant=config.variant),
        )
    return EXIT_OK


def cmd_ck(config: RunConfig, arrangement) -> int:
    s = validate_arrangement(arrangement)
    vec = ck_decomposition(s)
    barycenter = vec.to_complex()
    if config.format == "csv":
        header = ["k", "c_k"]
        body = [[str(k), str(c)] for k, c in enumerate(vec.coefficients)]
        _emit(config, _csv_text(header, body))
    else:
        payload = [{"k": k, "c_k": c} for k, c in enumerate(vec.coefficients)]
        _emit(
            config,
            _json_text(
                len(s),
                "exact",
                "ck",
                payload,
                arrangement=list(s),
                barycenter=[barycenter.real, barycenter.imag],
            ),
        )
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    """Run the oracle suite; print one PASS/FAIL line per property."""
    n = config.n
    failures = []
    lines = []

    def record(name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    rng = np.random.default_rng(20100615)
    worst = 0.0
    for m in range(2, min(n, 7) + 1):
        for _ in range(5):
            u = random_unitary(m, rng)
            a = permanent_naive(u)
            b = permanent_ryser(u)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    record("permanent-oracle-agreement", worst < 1e-10, f"max relative deviation {worst:.3g}")

    classes = enumerate_quantum_classes(n)
    total = 0.0
    for c in classes:
        total += c.orbit_size * batch_quantum_probability(c.representative)
    total = float(total)
    record("normalization", abs(total - 1.0) < 1e-9, f"sum = {total!r}")

    bad = None
    for c in classes:
        p0 = batch_quantum_probability(c.representative)
        for member in dihedral_orbit(c.representative):
            if abs(batch_quantum_probability(member) - p0) > 1e-10:
                bad = member
                break
        if bad:
            break
    record("dihedral-invariance", bad is None, f"violated by {bad}" if bad else "all orbits agree")

    bad = None
    for c in classes:
        if suppression_Q(c.representative) != 0 and not is_suppressed_exact(c.representative):
            bad = c.representative
            break
    record("law-soundness", bad is None, f"violated by {bad}" if bad else "Q != 0 implies exact zero")

    bad = None
    for s in enumerate_arrangements(n):
        if not verify_gamma_shift(s):
            bad = s
            break
    record("gamma-shift", bad is None, f"violated by {bad}" if bad else "c_k periodic under Q shift")

    anomalous = [
        c.representative
        for c in classes
        if suppression_Q(c.representative) == 0 and is_suppressed_exact(c.representative)
    ]
    if anomalous:
        lines.append(
            "INFO anomalous-suppressions: " + "; ".join(_fmt_arrangement(a) for a in anomalous)
        )
    else:
        lines.append("INFO anomalous-suppressions: none")

    _emit(config, "\n".join(lines) + "\n")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiport",
        description="Bosonic statistics of the n-port Fourier multiport beam splitter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_n=True):
        if with_n:
            p.add_argument("--n", type=int, required=True, help="number of ports / particles")
        p.add_argument("--mode", choices=("float", "exact", "both"), default="float")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", type=Path, default=None, help="write here instead of stdout")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument(
            "--tolerance",
            type=float,
            default=FLOAT_ZERO_SCALE,
            help="scale of the float-path zero threshold, relative to n!/n^n",
        )
        p.add_argument("--cache-dir", type=str, default=None)
        p.add_argument(
            "--allow-large",
            action="store_true",
            help="lift the default size caps (runtime grows steeply)",
        )

    add_common(sub.add_parser("classes", help="per-quantum-class probability table"))

    p1 = sub.add_parser("table1", help="event census for n = 2..n_max")
    p1.add_argument("--n-max", type=int, required=True)
    add_common(p1, with_n=False)

    p2 = sub.add_parser("table2", help="nonsuppressed classes with exact enhancements")
    add_common(p2)

    pd = sub.add_parser("dist", help="coarse-grained distribution table")
    pd.add_argument(
        "--kind", choices=stats.DISTRIBUTION_KINDS, required=True, help="grouping of arrangements"
    )
    pd.add_argument(
        "--variant",
        choices=stats.OCCUPANCY_VARIANTS,
        default="marginal",
        help="port-occupancy definition",
    )
    add_common(pd)

    pv = sub.add_parser("verify", help="oracle and invariant sweep")
    add_common(pv)

    pc = sub.add_parser("ck", help="phase-class histogram of one arrangement")
    pc.add_argument(
        "--arrangement",
        required=True,
        help="comma-separated occupancies, e.g. 0,1,2,1,0,2",
    )
    add_common(pc, with_n=False)

    return parser


def _check_caps(parser, n: int, mode: str, allow_large: bool, command: str) -> None:
    if n < 1:
        parser.error(f"--n must be >= 1, got {n}")
    if command == "verify":
        cap = 9 if allow_large else DEFAULT_VERIFY_CAP
        if n > cap:
            raise ResourceLimitError(f"verify supports n <= {cap} (brute-force oracles)")
        return
    exact_cap = EXACT_AMPLITUDE_LIMIT if allow_large else DEFAULT_EXACT_CAP
    if mode in ("exact", "both") and n > exact_cap:
        hint = "; pass --allow-large to go further" if n <= EXACT_AMPLITUDE_LIMIT else ""
        raise ResourceLimitError(f"exact mode capped at n <= {exact_cap}{hint}")
    if n > DEFAULT_FLOAT_CAP:
        raise ResourceLimitError(f"float path capped at n <= {DEFAULT_FLOAT_CAP}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "table1":
            n = args.n_max
        elif args.command == "ck":
            try:
                arrangement = [int(x) for x in args.arrangement.split(",") if x.strip() != ""]
            except ValueError:
                parser.error(f"--arrangement must be comma-separated integers, got {args.arrangement!r}")
            n = len(arrangement)
        else:
            n = args.n
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        if args.tolerance <= 0:
            parser.error("--tolerance must be > 0")
        if args.command != "ck":
            _check_caps(parser, n, args.mode, args.allow_large, args.command)

        config = RunConfig(
            n=n,
            mode=args.mode,
            format=args.format,
            output=args.output,
            jobs=args.jobs,
            tolerance=args.tolerance,
            cache_dir=_resolve_cache_dir(args.cache_dir),
            kind=getattr(args, "kind", None),
            variant=getattr(args, "variant", "marginal"),
        )

        if args.command == "classes":
            return cmd_classes(config)
        if args.command == "table1":
            return cmd_table1(config)
        if args.command == "table2":
            if n > 6:
                parser.error("table2 is defined for n <= 6")
            return cmd_table2(config)
        if args.command == "dist":
            return cmd_dist(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "ck":
            return cmd_ck(config, arrangement)
        parser.error(f"unknown command {args.command}")
    except InvalidArrangementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CacheCorruptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
