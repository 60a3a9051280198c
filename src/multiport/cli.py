"""Command-line front end: tables, distributions, verification, caching.

Subcommands

* classes: per-quantum-class probability table
* table1:  event/class census with suppression counts for n = 2..n_max
* table2:  nonsuppressed classes and exact enhancements
* dist:    occupied-ports, port-occupancy, or classical-classes distribution
* verify:  oracle and invariant sweep, exit 1 on any failure
* ck:      phase-class histogram of one arrangement

Every command but ck reads one exact statistics.ClassTable per n, built
serially by statistics.class_table and cached under one key as its
columns (ClassTable.columns).  The cache moves only bytes: a hit is
served through ClassTable.from_columns, which checks and certifies every
table, built or read, the same way: the classes with Q = 0 must carry
total probability exactly 1 (statistics.check_normalization), or
errors.CertificateError, an ArithmeticError, exits 3.  A build that
fails the certificate raises before class_rows_cached can store it, so
it is never cached, and no command checks its table again.  verify
reports the certificate as its normalization line: a table that fails
it is a FAIL line and exit 1.
class_rows_cached returns only what a command decodes from the table: the
rows with z != 0 (table2), the distribution (dist), the census row
(table1), every row (verify) or the lines (classes); verify picks its
Q = 0 rows with scattering.suppression_Q.  cache_load serves an entry
only in the one byte layout cache_store writes, under a matching sha256;
anything else, JSON nested too deep to parse, or columns that
ClassTable.from_columns rejects with ValueError (a Q = 0 code whose
digits do not sum to n among them), is a warning, a recompute and an
overwrite.  Only the cache imports hashlib.

_emit_table is the one writer of every table: it writes a head, the
rows as lines of text, and a tail, and the lines of every command but
classes come from one renderer, _line, which renders each tuple of cells
as csv.writer (QUOTE_MINIMAL) or json.dumps would.  classes renders its
lines in _class_lines, straight from the columns: it reads the digits of
each code once (arrangements.digit_groups), sorts by descending
prod s_j! read off them (arrangements.factorial_products), both from the
digit tables arrangements holds for n, and joins each representative
from text pieces it builds per digit group as the line is written; the
other cells depend only on orbit size, Q, prod s_j! and z, so their text
is rendered once for each distinct tuple, and the ClassProbabilityRow
properties are the reference the tests hold them to.  All output text is
made here: statistics formats none.  The lines are written as they are
rendered, so no table is held as text, and no byte is written before the
certificate, which ran when the table was made.  As one process on a
2-vCPU Xeon, a classes hit at n = 14 (718,146 rows) takes about 1.6 s to
os.devnull in CSV and JSON alike, 1.2 s of it in _class_lines.

Each subcommand takes only the options it reads (_build_parser), and each
argument rule sits with its option: --n >= 1, table1's --n-max >= 2 and
--jobs >= 1 are argparse types of ASCII digits after an optional -, as is
the --arrangement of ck, fields of ASCII digits.  Every result is exact,
so every JSON document is labeled "exact"; --mode and --jobs, on classes
and table1, are validated and change no byte.  dist takes a non-default
--variant with --kind port-occupancy only; main checks that rule before
any rows are built and reports a breach through the dist parser, like any
argument error.

Each subcommand's size cap is a parser default (cap), which main checks
against n before any rows are built: verify runs brute-force oracles and
takes n <= BRUTE_FORCE_LIMIT (9); the other row commands take
n <= EXACT_AMPLITUDE_LIMIT (14), so table1 refuses a too large --n-max
before it builds any n.  ck is left to the check in
scattering.ck_decomposition, which also validates its arrangement.  ck's
JSON barycenter is the exact sum(c_k w^k), CyclotomicVector.as_integer,
written as [z, 0.0]; a sum that is not an integer exits 3.  verify
evaluates the exact kernel once, over every arrangement of n, and looks z
up for each of its invariant checks.
An --output file or a stdout that cannot be written is an invalid argument;
a stderr that cannot be written drops its warning and error lines (_stderr).

Exit codes: 0 ok, 1 verification failure, 2 invalid arguments,
3 resource/exact-arithmetic limit, 4 unusable cache.  The cache location
is created before any rows are built (_resolve_cache_dir), so one that
cannot be a directory exits 4 at once.

main(argv) is the in-process API: it returns the exit code and leaves
the interpreter running.  A process, python -m multiport.cli or the
multiport console script, enters through process_main instead, which
flushes stdout and stderr once main returns and ends the process with
os._exit: by then every byte is written and every file closed, so the
interpreter's teardown, 25-28 ms of a process at n = 10 (7-11 ms on a
cache hit), would only free memory the process is about to give back.
No atexit handler runs in such a process, and the package registers none.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterator
from fractions import Fraction
from io import TextIOBase
from itertools import repeat
from operator import add
from pathlib import Path

from . import statistics as stats
from ._numpy import np
from .arrangements import code_Q, digit_groups, enumerate_arrangements, factorial_products, multiplier_image
from .errors import (
    BRUTE_FORCE_LIMIT,
    EXACT_AMPLITUDE_LIMIT,
    CacheCorruptionError,
    CertificateError,
    InvalidArrangementError,
    OutputError,
    ResourceLimitError,
    check_size,
)
from .scattering import (
    EXACT_KERNEL_TAG,
    ck_decomposition,
    exact_integer_amplitudes,
    permanent_naive,
    permanent_ryser,
    random_unitary,
    suppression_Q,
    verify_gamma_shift,
)

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "MULTIPORT_CACHE_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_CACHE = 4


def _to_devnull(stream: TextIOBase) -> None:
    """Point a failed standard stream, such as a closed pipe, at os.devnull, so the flush at exit cannot fail."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def _stderr(line: str) -> None:
    """Print one warning or error line to stderr; a stderr that fails drops it (_to_devnull)."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


# ---------------------------------------------------------------------------
# result cache


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# The text of an entry as cache_store writes it, _canonical_json of
# {"checksum": digest, "payload": payload, "schema_version": SCHEMA_VERSION},
# is _ENTRY_HEAD + digest + _ENTRY_BODY + _canonical_json(payload) + _ENTRY_TAIL.
_ENTRY_HEAD = b'{"checksum":"'
_ENTRY_BODY = b'","payload":'
_ENTRY_TAIL = b',"schema_version":%d}' % SCHEMA_VERSION
_DIGEST_END = len(_ENTRY_HEAD) + 64
_PAYLOAD_START = _DIGEST_END + len(_ENTRY_BODY)


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def cache_key(n: int) -> str:
    """Name of the columns entry of n; it names the exact kernel that computed it."""
    return f"v{SCHEMA_VERSION}_columns_n{n}_exact-{EXACT_KERNEL_TAG}"


def cache_load(cache_dir: Path, key: str) -> dict | None:
    """Return the cached payload, or None when absent, unreadable or corrupted.

    An entry is served only in the byte layout cache_store writes, and only
    when the sha256 of its payload bytes, as written, equals its checksum:
    those bytes are then the canonical JSON the checksum was taken over, so
    they need no re-encoding.  Any other entry (another layout or
    schema_version, not JSON, or JSON nested deeper than json.loads
    recurses) is unreadable.  An unreadable entry or a bad
    checksum is reported on stderr and treated as a miss; the caller
    recomputes and overwrites.
    """
    import hashlib  # OpenSSL's import costs milliseconds; only the cache hashes

    path = _cache_path(cache_dir, key)
    if not path.is_file():
        return None
    try:
        data = path.read_bytes()
        digest, body = data[len(_ENTRY_HEAD) : _DIGEST_END], data[_PAYLOAD_START : -len(_ENTRY_TAIL)]
        if data != _ENTRY_HEAD + digest + _ENTRY_BODY + body + _ENTRY_TAIL:
            raise ValueError("not in the layout cache_store writes")
        if hashlib.sha256(body).hexdigest().encode() != digest:
            _stderr(f"warning: checksum mismatch in {path}, recomputing")
            return None
        return json.loads(body)
    except (OSError, ValueError, RecursionError) as exc:
        _stderr(f"warning: unreadable cache entry {path}: {exc}")
        return None


def cache_store(cache_dir: Path, key: str, payload: dict) -> None:
    """Write an entry to a temp file beside it, then os.replace it into place.

    A crash or a concurrent reader thus sees the previous entry or the new
    one, never a partial file; on failure the temp file is removed.  The
    entry is compact, key-sorted JSON, spliced from the payload's one
    canonical encoding; the checksum is the sha256 of that encoding.
    cache_dir is created here too, for callers that do not come through
    main (_resolve_cache_dir).
    """
    import hashlib

    tmp = cache_dir / f".{key}.{os.getpid()}.tmp"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        body = _canonical_json(payload).encode()
        digest = hashlib.sha256(body).hexdigest().encode()
        tmp.write_bytes(_ENTRY_HEAD + digest + _ENTRY_BODY + body + _ENTRY_TAIL)
        os.replace(tmp, _cache_path(cache_dir, key))
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise CacheCorruptionError(f"cannot write cache under {cache_dir}: {exc}") from exc


def _resolve_cache_dir(arg: str | None) -> Path | None:
    """The cache directory, --cache-dir or else $MULTIPORT_CACHE_DIR, created now; None for no cache.

    Creating it before any rows are built makes a location that cannot be
    a directory, such as a path under a file, exit 4 at once rather than
    after the build (CacheCorruptionError, with cache_store's message).
    A directory that exists but cannot be written still fails only when
    cache_store writes the entry.
    """
    path = arg or os.environ.get(CACHE_ENV_VAR)
    if not path:
        return None
    cache_dir = Path(path)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CacheCorruptionError(f"cannot write cache under {cache_dir}: {exc}") from exc
    return cache_dir


# ---------------------------------------------------------------------------
# class rows


def _payload_to_rows(payload: dict, n: int, decode: Callable[[stats.ClassTable], object]):
    """decode of the ClassTable of a payload of columns (ClassTable.from_columns, ValueError there)."""
    return decode(stats.ClassTable.from_columns(n, payload))


def class_rows_cached(n: int, cache_dir: Path | None, decode=lambda table: table.rows(nonzero=True)):
    """decode of the ClassTable of n, read through cache_dir when one is set.

    decode maps the table to what the command reads: by default the rows
    with z != 0; statistics.census_row (table1); statistics.distribution
    (dist); ClassTable.rows for every row (verify); the lines of
    _class_lines.  A hit decodes only what decode reads.  Every command
    reads the same exact table, so one entry per n serves them all.  An
    entry that ClassTable.from_columns or decode rejects with ValueError is
    unreadable, like one that is not JSON: a warning, then a recompute and
    an overwrite.  A table that fails the certificate raises
    CertificateError from from_columns, on a hit or before a build is
    stored.
    """
    key = cache_key(n)
    if cache_dir is not None:
        payload = cache_load(cache_dir, key)
        if payload is not None:
            try:
                return _payload_to_rows(payload, n, decode)
            except ValueError as exc:
                path = _cache_path(cache_dir, key)
                _stderr(f"warning: unreadable cache entry {path}: {exc}")
    table = stats.class_table(n)
    if cache_dir is not None:
        cache_store(cache_dir, key, table.columns())
    return decode(table)


# ---------------------------------------------------------------------------
# emission


def _emit(args: argparse.Namespace, write: Callable[[TextIOBase], object]) -> None:
    """Call write on stdout, or on args.output opened for writing; OutputError if that fails.

    A stdout that fails, such as a closed pipe, is then pointed at
    os.devnull (_to_devnull).
    """
    try:
        with args.output.open("w", encoding="utf-8") if args.output else contextlib.nullcontext(sys.stdout) as f:
            write(f)
            f.flush()
    except OSError as exc:
        if not args.output:
            _to_devnull(sys.stdout)
        raise OutputError(f"cannot write {args.output or 'stdout'}: {exc.strerror or exc}") from exc


# A CSV cell holding one of these is quoted, as csv.QUOTE_MINIMAL quotes it.
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_cell(v) -> str:
    """CSV conventions: arrangements comma-joined, booleans lower case,
    floats to 17 digits, fractions reduced like 36/5; a cell holding , " \\r
    or \\n is quoted and its quotes doubled (_NEEDS_QUOTES)."""
    if isinstance(v, bool):
        text = str(v).lower()
    elif isinstance(v, float):
        text = format(v, ".17g")
    elif isinstance(v, tuple):
        text = ",".join(map(str, v))
    else:
        text = str(v)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _json_cell(v) -> str:
    """JSON conventions: the text json.dumps writes, fractions as {"num", "den"} and arrangements as arrays.

    Fractions, arrangements (tuples of ints) and ints, the cells of the long
    tables, are rendered here; every other cell by json.dumps.
    """
    if isinstance(v, Fraction):
        return f'{{"num": {v.numerator}, "den": {v.denominator}}}'
    if isinstance(v, tuple):
        return "[" + ", ".join(map(str, v)) + "]"
    return str(v) if type(v) is int else json.dumps(v)


def _line(fmt: str, header) -> Callable[[tuple], str]:
    """The function rendering a tuple of cells as one line of _emit_table, as csv.writer or json.dumps writes it.

    A CSV line is the cells (_csv_cell) comma-joined, then a newline; a
    JSON line is ", " and the object json.dumps makes of the header's keys
    and the cells (_json_cell).
    """
    if fmt == "csv":
        return lambda row: ",".join(map(_csv_cell, row)) + "\n"
    keys = [json.dumps(key) + ": " for key in header]
    return lambda row: ", {" + ", ".join(map(add, keys, map(_json_cell, row))) + "}"


def _emit_table(args: argparse.Namespace, header, lines: Iterator[str], kind: str, n: int, **extra) -> None:
    """Write the lines of a table, text from _line or _class_lines, between its head and tail, as lines yields them.

    The CSV head is the header line; the JSON head is json.dumps of the
    document up to its "rows", and the JSON lines begin with the ", " that
    json.dumps puts between the rows, so that of the first line is dropped.
    The pieces join to the bytes of csv.writer or of one json.dumps of the
    whole document, and no table is held as text.  Every result is exact,
    so every JSON document is labeled "exact".
    """
    if args.format == "csv":
        head, sep, tail = _line("csv", header)(header), "", ""
    else:
        doc = {"schema_version": SCHEMA_VERSION, "n": n, "mode": "exact", "kind": kind, **extra}
        head, sep, tail = json.dumps(doc)[:-1] + ', "rows": [', ", ", "]}\n"

    def write(f):
        f.write(head)
        f.write(next(lines, sep)[len(sep) :])
        f.writelines(lines)
        f.write(tail)

    _emit(args, write)


# ---------------------------------------------------------------------------
# subcommands


CLASS_COLUMNS = (
    "representative",
    "orbit_size",
    "Q",
    "suppressed_exact",
    "p_classical_num",
    "p_classical_den",
    "p_quantum",
    "enhancement",
)


def _class_lines(table: stats.ClassTable, fmt: str) -> Iterator[str]:
    """The CLASS_COLUMNS lines of every class, as _line renders them for fmt, as one iterator in table order.

    The classes of the certified table go by descending prod s_j!, ties in
    code order (a stable sort): ascending classical probability
    n!/prod s_j! over n^n, ties by representative.  The digits of each code
    are read once, by arrangements.digit_groups (ValueError there, for a
    code that is not an arrangement, before any line is read), and
    prod s_j! comes from arrangements.factorial_products, both off the
    digit tables arrangements holds for n.  A line is its representative,
    then the text of the other cells.  The representative is joined from
    one piece per digit group, its digits joined by "," in CSV and ", " in
    JSON, after the line head (leading group) or the separator (every
    later group, all of width 3); the piece text is built here once for
    each of the two from the group's digits.  The other cells depend only
    on orbit size, Q (arrangements.code_Q), prod s_j! and z, so they are
    derived, exactly as the ClassProbabilityRow properties define them,
    and rendered once for each distinct tuple: 4,817 for the 718,146
    classes of n = 14.  That text is cut from the _line of the cells with
    () for the representative, so _line is the one renderer of a cell.
    """
    n, codes = table.n, table.codes
    n_fact, n_pow = math.factorial(n), n**n
    # csv quotes a representative of more than one digit, since it holds commas
    sep, head = (",", '"' if n > 1 else "") if fmt == "csv" else (", ", ', {"representative": [')
    line = _line(fmt, CLASS_COLUMNS)

    @functools.cache
    def rest(orbit, q, w, z):
        p = Fraction(n_fact // w, n_pow)
        values = ((), orbit, q, z == 0, p.numerator, p.denominator, z * z / (n_pow * w), Fraction(z * z, n_fact))
        blank = line(values)
        return head + blank if fmt == "csv" else blank[len(head) :]

    groups = digit_groups(n, codes)
    weights = factorial_products(groups)
    order = sorted(range(len(codes)), key=weights.__getitem__, reverse=True)  # stable: ties in code order
    # the pieces of the leading group follow head; those of every later group, all of width 3, follow sep
    text = [[lead + sep.join(map(str, t)) for t in digits] for lead, (digits, _, _) in zip((head, sep), groups)]
    pieces = [map(text[min(i, 1)].__getitem__, map(values.__getitem__, order))
              for i, (_, _, values) in enumerate(groups)]
    z = dict(zip(table.q0, table.z))
    cells = map(rest, map(table.orbit_sizes.__getitem__, order), code_Q(n, map(codes.__getitem__, order)),
                map(weights.__getitem__, order), map(z.get, order, repeat(0)))
    return map("".join, zip(*pieces, cells))


def cmd_classes(args: argparse.Namespace) -> int:
    """Rows by ascending classical probability, n!/prod s_j! over n^n; ties by representative.

    The lines come from _class_lines, through class_rows_cached, so a hit
    whose codes do not decode is recomputed; every byte waits for the
    certificate, which ClassTable.from_columns runs on the columns.
    """
    lines = class_rows_cached(args.n, args.cache_dir, lambda table: _class_lines(table, args.format))
    _emit_table(args, CLASS_COLUMNS, lines, "classes", args.n)
    return EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    header = ["n", "n_total", "n_class", "n_quantum", "n_law", "n_supp"]
    census = [class_rows_cached(n, args.cache_dir, stats.census_row) for n in range(2, args.n + 1)]
    _emit_table(args, header, map(_line(args.format, header), census), "table1", args.n)
    return EXIT_OK


def cmd_table2(args: argparse.Namespace) -> int:
    # enhancement = z^2/n!, so descending z^2 is descending enhancement
    alive = sorted(class_rows_cached(args.n, args.cache_dir), key=lambda r: (-r.z * r.z, r.representative))
    cells = ((r.representative, r.orbit_size, r.enhancement) for r in alive)
    header = ["representative", "orbit_size", "enhancement"]
    _emit_table(args, header, map(_line(args.format, header), cells), "table2", args.n)
    return EXIT_OK


def cmd_dist(args: argparse.Namespace) -> int:
    table = class_rows_cached(args.n, args.cache_dir, lambda t: stats.distribution(args.kind, t, args.variant))
    header = ["category", "classical", "quantum", "approx"]
    _emit_table(args, header, map(_line(args.format, header), table.rows), table.kind, args.n, variant=args.variant)
    return EXIT_OK


def cmd_ck(args: argparse.Namespace) -> int:
    """The histogram c_k of one arrangement; JSON adds the exact sum(c_k w^k) = z as "barycenter": [z, 0.0].

    n <= BRUTE_FORCE_LIMIT keeps |z| below 2^23, so the float holds z exactly.
    """
    s = args.arrangement
    vec = ck_decomposition(s)  # validates s
    if (z := vec.as_integer()) is None:
        raise ArithmeticError(f"sum c_k w^k of {vec!r} is not an integer")
    extra = {"arrangement": s, "barycenter": [float(z), 0.0]}
    header = ["k", "c_k"]
    _emit_table(args, header, map(_line(args.format, header), enumerate(vec.coefficients)), "ck", len(s), **extra)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the oracle suite; print one PASS/FAIL line per property."""
    n = args.n
    lines = []

    def record(name: str, ok: bool, detail: str):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    def report() -> int:
        text = "\n".join(lines) + "\n"
        _emit(args, lambda f: f.write(text))
        return EXIT_VERIFY_FAILED if any(line.startswith("FAIL") for line in lines) else EXIT_OK

    rng = np.random.default_rng(20100615)
    worst = 0.0
    for m in range(2, min(n, 7) + 1):
        for _ in range(5):
            u = random_unitary(m, rng)
            a = permanent_naive(u)
            b = permanent_ryser(u)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    # The deviation itself depends on numpy and LAPACK, so only a FAIL prints it.
    ok = worst < 1e-10
    record("permanent-oracle-agreement", ok, "max relative deviation " + ("below 1e-10" if ok else f"{worst:.3g}"))

    # The rows skip the kernel on Q != 0 classes; an exact total of 1 also
    # proves each skipped class an exact zero.  ClassTable.from_columns
    # certifies every table (statistics.check_normalization); a failure is
    # reported here as a FAIL line and exit 1 rather than exit 3, and the
    # lines that need the table are left out.
    try:
        rows = class_rows_cached(n, args.cache_dir, stats.ClassTable.rows)
    except CertificateError as exc:
        record("normalization", False, str(exc))
        return report()
    record("normalization", True, "sum = 1")
    q0 = dict.fromkeys(r for r in rows if suppression_Q(r.representative) == 0)  # in code order

    # One kernel pass over every arrangement; the checks below look z up.
    # The rows share one evaluation per affine orbit of Q = 0 classes, so
    # multiplier-invariance compares z on the image p -> u*p of each of
    # them, for every unit u.  dihedral-invariance compares the kernel's
    # signed z over the 2n images of each representative t: rotation k of
    # t maps port p to p - k, and rotation k of t reversed maps p to
    # n-1-k - p.  A shift by a multiplies z by (-1)^(a*(n-1)) and the
    # reflection keeps it, the rule q0_amplitudes relies on.
    arrangements = list(enumerate_arrangements(n))
    z_of = dict(zip(arrangements, exact_integer_amplitudes(arrangements)))
    units = [u for u in range(1, n) if math.gcd(u, n) == 1] or [1]
    images = ((multiplier_image(r.representative, u), r.z) for r in q0 for u in units)
    dihedral = ((v[k:] + v[:k], (-1) ** ((a + k) * (n - 1)) * z_of[t])
                for t in (r.representative for r in rows) for v, a in ((t, 0), (t[::-1], n - 1)) for k in range(n))
    checks = [
        ("dihedral-invariance", "all orbits agree", ((m, z_of[m] == z) for m, z in dihedral)),
        ("multiplier-invariance", "z(u*s) = z(s) for every unit u", ((t, z_of[t] == z) for t, z in images)),
        ("law-soundness", "Q != 0 implies exact zero",
         ((r.representative, not z_of[r.representative]) for r in rows if r not in q0)),
        ("gamma-shift", "c_k periodic under Q shift", ((s, verify_gamma_shift(s)) for s in arrangements)),
    ]
    for name, passed, cases in checks:
        bad = next((s for s, ok in cases if not ok), None)
        record(name, bad is None, f"violated by {bad}" if bad else passed)

    anomalous = sorted(r.representative for r in q0 if r.suppressed_exact)
    lines.append("INFO anomalous-suppressions: " + ("; ".join(",".join(map(str, s)) for s in anomalous) or "none"))
    return report()


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(low: int) -> Callable[[str], int]:
    """The argparse type of an int option that must be at least low: ASCII digits after an optional -."""

    def parse(text: str) -> int:
        digits = text.strip().removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _arrangement(text: str) -> list[int]:
    """The argparse type of --arrangement: comma-separated ASCII digits, spaces around them allowed."""
    fields = [x.strip() for x in text.split(",")]
    if not all(x.isascii() and x.isdigit() for x in fields):
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}")
    return [int(x) for x in fields]


# The options several subcommands share; each subcommand takes those it reads.
_SHARED_OPTIONS = {
    "--n": dict(type=_at_least(1), required=True, help="number of ports / particles"),
    "--mode": dict(
        choices=("float", "exact"),
        default="exact",
        help="accepted for compatibility; every result is exact and labeled so",
    ),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--output": dict(type=Path, default=None, help="write here instead of stdout"),
    "--jobs": dict(type=_at_least(1), default=1, help="accepted for compatibility; runs are serial"),
    "--cache-dir": dict(type=str, default=None),
}

# The size cap of a subcommand's n, as check_size's what and limit.
_EXACT_CAP = ("exact amplitudes", EXACT_AMPLITUDE_LIMIT)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiport",
        description="Bosonic statistics of the n-port Fourier multiport beam splitter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help, *flags, cap=_EXACT_CAP):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, cap=cap, error=p.error)
        for flag in flags:
            p.add_argument(flag, **_SHARED_OPTIONS[flag])
        return p

    add("classes", cmd_classes, "per-quantum-class probability table",
        "--n", "--mode", "--format", "--output", "--jobs", "--cache-dir")

    p1 = add("table1", cmd_table1, "event census for n = 2..n_max",
             "--mode", "--format", "--output", "--jobs", "--cache-dir")
    p1.add_argument("--n-max", dest="n", metavar="N_MAX", type=_at_least(2), required=True)

    add("table2", cmd_table2, "nonsuppressed classes with exact enhancements",
        "--n", "--format", "--output", "--cache-dir")

    pd = add("dist", cmd_dist, "coarse-grained distribution table",
             "--n", "--format", "--output", "--cache-dir")
    pd.add_argument(
        "--kind", choices=stats.DISTRIBUTION_KINDS, required=True, help="grouping of arrangements"
    )
    pd.add_argument(
        "--variant",
        choices=stats.OCCUPANCY_VARIANTS,
        default="marginal",
        help="port-occupancy definition (--kind port-occupancy only)",
    )

    add("verify", cmd_verify, f"oracle and invariant sweep, n <= {BRUTE_FORCE_LIMIT}",
        "--n", "--output", "--cache-dir", cap=("verify (brute-force oracles)", BRUTE_FORCE_LIMIT))

    # ck_decomposition checks the size of the arrangement itself
    pc = add("ck", cmd_ck, "phase-class histogram of one arrangement", "--format", "--output", cap=None)
    pc.add_argument(
        "--arrangement",
        type=_arrangement,
        required=True,
        help="comma-separated occupancies, e.g. 0,1,2,1,0,2",
    )

    return parser


def main(argv=None) -> int:
    """Run one command in this process and return its exit code; the process goes on (process_main ends it)."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "dist":
            try:  # the variant rule of category_columns, before any rows are built
                stats.category_columns(args.kind, 1, args.variant)
            except ValueError as exc:
                args.error(f"argument --variant: {exc}")
        if args.cap:  # before any rows are built, so table1 builds no n if n_max is too large
            check_size(args.cap[0], args.n, args.cap[1])
        if "cache_dir" in args:
            args.cache_dir = _resolve_cache_dir(args.cache_dir)
        return args.run(args)
    except (InvalidArrangementError, OutputError) as exc:
        error, code = exc, EXIT_USAGE
    except (ResourceLimitError, ArithmeticError) as exc:
        error, code = exc, EXIT_RESOURCE
    except CacheCorruptionError as exc:
        error, code = exc, EXIT_CACHE
    _stderr(f"error: {error}")
    return code


def process_main() -> None:
    """The process entry of python -m multiport.cli and of the multiport script: main, a flush, then os._exit.

    When main returns, its output is written and no file is open: an
    --output file is closed by its with, and a cache entry is in place by
    os.replace.  So once stdout and stderr are flushed, the process ends
    with main's exit code and skips the interpreter's teardown, which
    would only free the process's memory.  A stream whose flush fails is
    pointed at os.devnull (_to_devnull), and the code stays main's.  No
    atexit handler runs; the package registers none.  Whatever escapes
    main (argparse's SystemExit for --help or a usage error,
    KeyboardInterrupt, a traceback) ends the process the normal way.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when the process started with that descriptor closed
                stream.flush()
        except OSError:
            _to_devnull(stream)
    os._exit(code)


if __name__ == "__main__":
    process_main()
