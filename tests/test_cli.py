import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import multiport
from multiport import cli, scattering
from multiport import statistics as st
from multiport.arrangements import enumerate_arrangements
from multiport.cli import (
    CLASS_COLUMNS,
    SCHEMA_VERSION,
    _canonical_json,
    _emit_table,
    _line,
    cache_load,
    cache_store,
    main,
)
from multiport.cyclotomic import CyclotomicVector
from multiport.errors import CacheCorruptionError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def altered_kernel(target, change):
    """The batched exact kernel with change applied to the z of the arrangement target."""
    real = scattering.exact_integer_amplitudes

    def kernel(ts):
        ts = list(ts)
        return [change(z) if tuple(s) == target else z for s, z in zip(ts, real(ts))]

    return kernel


# Runs the CLI in a fresh interpreter, then reports its exit code, the
# numpy submodules it loaded and whether it loaded dataclasses and
# OpenSSL's _hashlib as a JSON line on stderr.
_PROBE = """
import json, sys
from multiport.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
status = {"exit": code, "numpy": loaded, "dataclasses": "dataclasses" in sys.modules,
          "_hashlib": "_hashlib" in sys.modules}
print(json.dumps(status), file=sys.stderr)
"""


# The columns of the n = 4 entry: codes of (0, 0, 0, 4), (0, 0, 1, 3), ...,
# (1, 1, 1, 1) in base 5, their orbit sizes, and z on the Q = 0 classes
# (0, 0, 0, 4), (0, 1, 2, 1) and (0, 2, 0, 2).
_N4 = {
    "codes": [4, 8, 12, 28, 32, 36, 52, 156],
    "orbit_sizes": [4, 8, 4, 4, 8, 4, 2, 1],
    "z": [-24, -8, 8],
}


def run_fresh(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(multiport.__file__).parents[1]))
    env.pop("MULTIPORT_CACHE_DIR", None)
    p = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    return json.loads(p.stderr.splitlines()[-1]), p.stdout


class TestClasses:
    def test_n2(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "representative"
        assert len(rows) == 2

    def test_n6_exact_suppression_census(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "6", "--mode", "exact")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 50
        suppressed = [r for r in rows if r[header.index("suppressed_exact")] == "true"]
        assert len(suppressed) == 40  # 38 by the law plus 2 anomalous

    def test_exact_columns(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "3", "--mode", "exact")
        header, rows = parse_csv(out)
        by_rep = {r[0]: r for r in rows}
        row = by_rep["1,1,1"]
        assert row[header.index("p_classical_num")] == "2"
        assert row[header.index("p_classical_den")] == "9"
        assert row[header.index("enhancement")] == "3/2"

    def test_invalid_n_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classes", "--n", "0"])
        assert exc.value.code == 2

    def test_exact_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "classes", "--n", "15", "--mode", "exact")
        assert code == 3
        assert "n <= 14" in err

    def test_float_cap_exits_3(self, capsys):
        code, _, _ = run(capsys, "classes", "--n", "15")
        assert code == 3

    def test_float_rows_are_rounded_exact_values(self, capsys, monkeypatch):
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "classes", "--n", "10")
        assert code == 0
        header, rows = parse_csv(out)
        col = {name: header.index(name) for name in header}
        zeros = 0
        for row in rows:
            s = tuple(int(x) for x in row[col["representative"]].split(","))
            z = scattering.exact_integer_amplitude(s)
            exact = Fraction(z * z, 10**10 * math.prod(map(math.factorial, s)))
            assert float(row[col["p_quantum"]]) == float(exact), s
            assert row[col["suppressed_exact"]] == str(z == 0).lower()
            assert Fraction(row[col["enhancement"]]) == Fraction(z * z, math.factorial(10))
            zeros += row[col["p_quantum"]] == "0"
        assert len(rows) == 4752
        assert zeros == 4226 + 96  # law-certified plus anomalous

    def test_sorted_by_classical_probability(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "6")
        assert code == 0
        header, rows = parse_csv(out)
        num, den = header.index("p_classical_num"), header.index("p_classical_den")
        keys = [(Fraction(int(r[num]), int(r[den])), tuple(map(int, r[0].split(",")))) for r in rows]
        assert keys == sorted(keys)
        assert len(keys) == 50

    def test_kernel_check_failure_exits_3(self, capsys, monkeypatch):
        real = scattering._glynn_residues

        def corrupted(ts, primes, powers, inverses):
            residues = real(ts, primes, powers, inverses)
            residues[0] = (residues[0] + 1) % primes[0]  # every class, first prime
            return residues

        monkeypatch.setattr(scattering, "_glynn_residues", corrupted)
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, _, err = run(capsys, "classes", "--n", "4", "--mode", "exact")
        assert code == 3
        assert err.startswith("error: ") and "spare prime" in err
        assert "Traceback" not in err


class TestClassCells:
    """The cells of classes, derived in integer arithmetic, against the row properties."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_cells_equal_row_properties(self, capsys, monkeypatch, n):
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        rows = sorted(st.class_table(n).rows(), key=lambda r: (r.p_classical, r.representative))
        code, csv_out, _ = run(capsys, "classes", "--n", str(n))
        assert code == 0
        code, json_out, _ = run(capsys, "classes", "--n", str(n), "--format", "json")
        assert code == 0
        header, csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)["rows"]
        assert tuple(header) == CLASS_COLUMNS
        assert len(csv_rows) == len(json_rows) == len(rows)
        for r, csv_row, json_row in zip(rows, csv_rows, json_rows):
            p, e = r.p_classical, r.enhancement
            assert csv_row == [
                ",".join(map(str, r.representative)),
                str(r.orbit_size),
                str(scattering.suppression_Q(r.representative)),
                str(r.suppressed_exact).lower(),
                str(p.numerator),
                str(p.denominator),
                format(r.p_quantum, ".17g"),
                str(e),
            ]
            json_cells = [
                list(r.representative),
                r.orbit_size,
                scattering.suppression_Q(r.representative),
                r.suppressed_exact,
                p.numerator,
                p.denominator,
                r.p_quantum,
                {"num": e.numerator, "den": e.denominator},
            ]
            assert list(json_row.items()) == list(zip(CLASS_COLUMNS, json_cells))
            assert json_row["suppressed_exact"] is r.suppressed_exact

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ([], "ce4a94cc13f1d8021b58fb9d9ec79bf79c7104a9d44a6468211589cda25790f7"),
            (["--format", "json"], "7d9a4b4fb59f33edf004f7dec0f23cbf9f0c346376d87dcb01ab9d7271957307"),
        ],
    )
    def test_n10_bytes_unchanged(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "classes", "--n", "10", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTable1:
    def test_n_max_2(self, capsys):
        code, out, _ = run(capsys, "table1", "--n-max", "2", "--mode", "exact")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows == [["2", "3", "2", "2", "1", "0"]]

    def test_n_max_6_exact(self, capsys):
        code, out, _ = run(capsys, "table1", "--n-max", "6", "--mode", "exact")
        _, rows = parse_csv(out)
        assert rows[-1] == ["6", "462", "11", "50", "38", "2"]

    def test_normalization_certificate_failure_exits_3(self, capsys, monkeypatch):
        kernel = altered_kernel((0, 0, 0, 1, 4, 1), lambda z: z + 1)
        monkeypatch.setattr(st, "exact_integer_amplitudes", kernel)
        code, out, err = run(capsys, "table1", "--n-max", "6", "--mode", "exact")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "n=6" in err

    @pytest.mark.parametrize("n_max", ["1", "0", "-3"])
    def test_n_max_below_2_exits_2(self, capsys, n_max):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--n-max", n_max])
        assert exc.value.code == 2
        assert "argument --n-max: must be >= 2" in capsys.readouterr().err

    def test_float_mode_prints_exact_census(self, capsys, monkeypatch):
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "table1", "--n-max", "6", "--mode", "float")
        assert code == 0
        assert out == run(capsys, "table1", "--n-max", "6", "--mode", "exact")[1]
        assert parse_csv(out)[1][-1] == ["6", "462", "11", "50", "38", "2"]

    def test_reads_and_fills_the_row_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        code, census, _ = run(capsys, "table1", "--n-max", "6", "--cache-dir", str(cache))
        assert code == 0
        names = sorted(p.name for p in cache.glob("*.json"))
        assert names == sorted(f"v1_columns_n{n}_exact-glynn-crt.json" for n in range(2, 7))

        def no_kernel(ts):
            raise AssertionError("kernel ran on a cache hit")

        monkeypatch.setattr(st, "exact_integer_amplitudes", no_kernel)
        code, out, err = run(capsys, "classes", "--n", "6", "--cache-dir", str(cache))
        assert code == 0, err
        assert len(parse_csv(out)[1]) == 50
        assert run(capsys, "table1", "--n-max", "6", "--cache-dir", str(cache))[1] == census


class TestTable2:
    def test_n4_enhancements(self, capsys):
        code, out, _ = run(capsys, "table2", "--n", "4")
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r[0], r[2]) for r in rows] == [
            ("0,0,0,4", "24"),
            ("0,1,2,1", "8/3"),
            ("0,2,0,2", "8/3"),
        ]

    def test_rejects_large_n(self, capsys):
        code, _, err = run(capsys, "table2", "--n", "15")
        assert code == 3
        assert "n <= 14" in err

    @pytest.mark.parametrize("n", range(7, 11))
    def test_survivor_count_matches_census(self, capsys, monkeypatch, census, n):
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "table2", "--n", str(n))
        assert code == 0
        _, rows = parse_csv(out)
        _, _, n_quantum, n_law, n_supp = census[n]
        assert len(rows) == n_quantum - n_law - n_supp


class TestDist:
    def test_port_occupancy_n2(self, capsys):
        code, out, _ = run(capsys, "dist", "--n", "2", "--kind", "port-occupancy")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["category", "classical", "quantum", "approx"]
        quantum = [float(r[2]) for r in rows]
        assert abs(quantum[0] - 0.5) < 1e-12
        assert quantum[1] < 1e-30
        assert abs(quantum[2] - 0.5) < 1e-12

    def test_classical_classes_rows(self, capsys):
        code, out, _ = run(capsys, "dist", "--n", "6", "--kind", "classical-classes")
        _, rows = parse_csv(out)
        assert len(rows) == 11

    def test_requires_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--n", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["occupied-ports", "classical-classes"])
    def test_variant_only_for_port_occupancy(self, capsys, kind, n):
        argv = ["dist", "--n", str(n), "--kind", kind]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--variant", "at-least-one"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: multiport dist ")  # the usage of dist, like every argument error
        assert "\nmultiport dist: error: argument --variant: variant 'at-least-one' of " in err
        code, out, _ = run(capsys, *argv, "--variant", "marginal", "--format", "json")
        assert code == 0
        assert json.loads(out)["variant"] == "marginal"
        assert json.loads(out)["mode"] == "exact"  # dist takes no --mode


class TestCk:
    def test_known_vector(self, capsys):
        code, out, _ = run(capsys, "ck", "--arrangement", "0,1,2,1,0,2")
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r[1]) for r in rows] == [96, 120, 168, 48, 168, 120]
        assert sum(int(r[1]) for r in rows) == math.factorial(6)

    def test_json_includes_barycenter(self, capsys):
        code, out, _ = run(
            capsys, "ck", "--arrangement", "0,1,2,1,0,2", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["arrangement"] == [0, 1, 2, 1, 0, 2]
        assert doc["barycenter"] == [0.0, 0.0]

    # The barycenter is the reduction of the c_k histogram; z comes from the
    # Glynn kernel, an independent path.
    @pytest.mark.parametrize("n", range(1, 7))
    def test_barycenter_is_exact_amplitude(self, capsys, n):
        for s in enumerate_arrangements(n):
            code, out, _ = run(capsys, "ck", "--arrangement", ",".join(map(str, s)), "--format", "json")
            assert code == 0
            assert json.loads(out)["barycenter"] == [float(scattering.exact_integer_amplitude(s)), 0.0], s

    def test_non_integer_sum_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ck_decomposition", lambda s: CyclotomicVector((1, 1, 0, 0, 0)))
        code, out, err = run(capsys, "ck", "--arrangement", "1,1,1,1,1", "--format", "json")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_bad_string_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ck", "--arrangement", "1,frog"])
        assert exc.value.code == 2

    # digit separators, signs, non-ASCII digits and empty fields are not occupancies
    @pytest.mark.parametrize("text", ["0,0,0_3", "0,+0,\uff13", "1,,1,1", "0,0,3,", "0,-0,3", ""])
    def test_fields_must_be_ascii_digits(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["ck", "--arrangement", text])
        assert exc.value.code == 2
        assert "argument --arrangement: must be comma-separated integers" in capsys.readouterr().err

    def test_spaces_around_fields_allowed(self, capsys):
        spaced = run(capsys, "ck", "--arrangement", " 0, 1,2 ,1,0,2")
        assert spaced[:2] == run(capsys, "ck", "--arrangement", "0,1,2,1,0,2")[:2]

    def test_wrong_sum_exits_2(self, capsys):
        code, _, err = run(capsys, "ck", "--arrangement", "1,1,1,0")
        assert code == 2
        assert "sum" in err

    def test_over_limit_exits_3(self, capsys):
        code, _, _ = run(capsys, "ck", "--arrangement", ",".join(["1"] * 10))
        assert code == 3


class TestVerify:
    def test_n2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_n4_stdout_pinned(self, capsys):
        # every line is exact: no float that depends on numpy or LAPACK
        code, out, _ = run(capsys, "verify", "--n", "4")
        assert code == 0
        assert out == (
            "PASS permanent-oracle-agreement: max relative deviation below 1e-10\n"
            "PASS normalization: sum = 1\n"
            "PASS dihedral-invariance: all orbits agree\n"
            "PASS multiplier-invariance: z(u*s) = z(s) for every unit u\n"
            "PASS law-soundness: Q != 0 implies exact zero\n"
            "PASS gamma-shift: c_k periodic under Q shift\n"
            "INFO anomalous-suppressions: none\n"
        )

    def test_n6_lists_anomalous(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 0
        assert "0,1,2,1,0,2" in out and "0,1,1,2,1,1" in out

    def test_n7_all_classes_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "7")
        assert code == 0
        assert "anomalous-suppressions: none" in out

    def test_cap(self, capsys, monkeypatch):
        def no_rows(n):
            raise AssertionError("rows built past the verify cap")

        monkeypatch.setattr(st, "class_table", no_rows)
        code, out, err = run(capsys, "verify", "--n", "10")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "n <= 9" in err

    def test_allow_large_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "9", "--allow-large"])
        assert exc.value.code == 2

    def test_wrong_amplitude_fails_normalization(self, capsys, monkeypatch):
        kernel = altered_kernel((0, 0, 0, 0, 0, 6), lambda z: z + 1)
        monkeypatch.setattr(st, "exact_integer_amplitudes", kernel)
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 1
        assert "FAIL normalization" in out


    def test_kernel_failure_is_not_a_normalization_line(self, capsys, monkeypatch):
        # the spare prime's ArithmeticError exits 3; only CertificateError is a FAIL line
        real = scattering._glynn_residues

        def corrupted(ts, primes, powers, inverses):
            residues = real(ts, primes, powers, inverses)
            residues[0] = (residues[0] + 1) % primes[0]  # every class, first prime
            return residues

        monkeypatch.setattr(scattering, "_glynn_residues", corrupted)
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, err = run(capsys, "verify", "--n", "6")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "spare prime" in err and "normalization" not in err

    def test_wrong_sign_fails_multiplier_invariance(self, capsys, monkeypatch):
        # -z keeps every |z| and z^2, so only the multiplier check sees it
        kernel = altered_kernel((0, 0, 0, 0, 1, 5, 1), lambda z: -z)
        monkeypatch.setattr(st, "exact_integer_amplitudes", kernel)
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "verify", "--n", "7")
        assert code == 1
        assert "PASS normalization" in out and "PASS dihedral-invariance" in out
        assert "FAIL multiplier-invariance: violated by" in out

    def test_wrong_sign_fails_dihedral_invariance(self, capsys, monkeypatch):
        # (1, 0, 0, 0, 1, 4) is (0, 0, 0, 1, 4, 1), z = -144, shifted by one port,
        # so its z is +144; negated, it keeps every |z| and z^2, and no other line sees it
        assert scattering.exact_integer_amplitude((1, 0, 0, 0, 1, 4)) == 144
        monkeypatch.setattr(cli, "exact_integer_amplitudes", altered_kernel((1, 0, 0, 0, 1, 4), lambda z: -z))
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL dihedral-invariance: violated by (1, 0, 0, 0, 1, 4)"]

    def test_nonzero_law_class_fails_law_soundness(self, capsys, monkeypatch):
        # z = 1 on the last Q != 0 class, in the kernel that verify's own checks call
        target = (1, 1, 1, 1, 1, 1)
        assert scattering.suppression_Q(target) != 0
        kernel, calls = altered_kernel(target, lambda z: 1), []
        monkeypatch.setattr(cli, "exact_integer_amplitudes", lambda ts: calls.append(1) or kernel(ts))
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 1
        assert "PASS normalization" in out
        assert "FAIL law-soundness: violated by (1, 1, 1, 1, 1, 1)\n" in out
        assert len(calls) == 1  # one batched call over every arrangement serves every line


class TestFormats:
    def test_json_and_csv_agree(self, capsys):
        _, csv_out, _ = run(capsys, "classes", "--n", "4", "--mode", "exact")
        _, json_out, _ = run(
            capsys, "classes", "--n", "4", "--mode", "exact", "--format", "json"
        )
        header, rows = parse_csv(csv_out)
        doc = json.loads(json_out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "classes"
        assert len(doc["rows"]) == len(rows)
        for csv_row, json_row in zip(rows, doc["rows"]):
            assert csv_row[0] == ",".join(str(x) for x in json_row["representative"])
            assert int(csv_row[1]) == json_row["orbit_size"]
            assert float(csv_row[6]) == json_row["p_quantum"]
            num = int(csv_row[4]), int(csv_row[5])
            assert num == (json_row["p_classical_num"], json_row["p_classical_den"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["classes", "--n", "9"],  # 1387 rows, more than one chunk
            ["table1", "--n-max", "5"],
            ["table2", "--n", "6"],
            ["dist", "--n", "5", "--kind", "occupied-ports"],
            ["dist", "--n", "5", "--kind", "port-occupancy", "--variant", "at-least-one"],
            ["dist", "--n", "6", "--kind", "classical-classes"],
            ["ck", "--arrangement", "0,1,2,1,0,2"],
        ],
        ids=" ".join,
    )
    def test_streamed_json_is_one_dumps(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out)) + "\n"

    @pytest.mark.parametrize("count", [0, 1, 2, 1024, 1025, 2051])
    def test_json_chunks_join_like_one_dumps(self, tmp_path, count):
        # the head, the lines of _line, each after ", " but the first, and the tail
        target = tmp_path / "out.json"
        args = argparse.Namespace(format="json", output=target)
        rows = [(k, k / 3, [k, -k]) for k in range(count)]
        header = ["k", "x", "pair"]
        _emit_table(args, header, map(_line("json", header), rows), "test", 3, extra=[1.5])
        doc = {"schema_version": SCHEMA_VERSION, "n": 3, "mode": "exact", "kind": "test", "extra": [1.5]}
        doc["rows"] = [{"k": k, "x": x, "pair": pair} for k, x, pair in rows]
        assert target.read_text() == json.dumps(doc) + "\n"

    @pytest.mark.parametrize("argv", [["classes", "--n", "5"], ["table1", "--n-max", "5"]], ids=" ".join)
    def test_mode_changes_no_byte(self, capsys, monkeypatch, argv):
        # every result is exact, so --mode is validated but changes no byte
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        runs = [run(capsys, *argv, "--format", "json", *mode) for mode in ([], ["--mode", "float"], ["--mode", "exact"])]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == 0 and json.loads(runs[0][1])["mode"] == "exact"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "classes", "--n", "3", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("representative,")


    @pytest.mark.parametrize("argv", [["classes", "--n", "3"], ["verify", "--n", "2"]])
    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv, target):
        path = tmp_path / target
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "fmt,stderr",
        [("csv", subprocess.PIPE), ("json", subprocess.PIPE), ("csv", subprocess.STDOUT)],
        ids=["csv", "json", "csv-stderr-to-stdout"],
    )
    def test_closed_stdout_exits_2(self, fmt, stderr):
        # the reader leaves after the first bytes, as `| head -c 64` does;
        # the 4,752 rows of n = 10 overflow the pipe buffer, so a write fails.
        # With stderr on the same pipe, as `2>&1 | head`, the error line fails too.
        env = dict(os.environ, PYTHONPATH=str(Path(multiport.__file__).parents[1]))
        env.pop("MULTIPORT_CACHE_DIR", None)
        argv = [sys.executable, "-m", "multiport.cli", "classes", "--n", "10", "--format", fmt]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=stderr) as p:
            assert len(p.stdout.read(64)) == 64
            p.stdout.close()
            err = p.stderr.read().decode() if p.stderr else None
            assert p.wait(timeout=300) == 2
        if err is not None:
            assert err.startswith("error: cannot write stdout: ")
            assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_closed_stdout_leaks_no_descriptor(self, capsys, monkeypatch):
        # in process: the failed stdout is pointed at os.devnull, and the
        # descriptor opened for that is closed again
        read, write = os.pipe()
        os.close(read)
        with open(write, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            before = len(os.listdir("/proc/self/fd"))
            assert main(["ck", "--arrangement", "0,1,2,1,0,2"]) == 2
            assert len(os.listdir("/proc/self/fd")) == before
        assert capsys.readouterr().err.startswith("error: cannot write stdout: ")


def _retired_csv_cell(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, tuple):
        return ",".join(map(str, v))
    return str(v)


def _retired_json_cell(v):
    return {"num": v.numerator, "den": v.denominator} if isinstance(v, Fraction) else v


def _retired_writers(fmt, header, values, kind, n, **extra):
    """The reference bytes of a table: csv.writer, or one json.dumps of the document with dict rows."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_retired_csv_cell, row) for row in values)
        return out.getvalue()
    doc = {"schema_version": SCHEMA_VERSION, "n": n, "mode": "exact", "kind": kind, **extra}
    doc["rows"] = [dict(zip(header, map(_retired_json_cell, row))) for row in values]
    return json.dumps(doc) + "\n"


class TestRetiredWriters:
    """Every command's bytes against csv.writer and json.dumps of dict rows, over the same cells."""

    @staticmethod
    def expected(argv, fmt):
        command, n = argv[0], int(argv[2])
        if command == "classes":
            rows = sorted(st.class_table(n).rows(), key=lambda r: (r.p_classical, r.representative))
            values = [
                (r.representative, r.orbit_size, scattering.suppression_Q(r.representative), r.suppressed_exact,
                 r.p_classical.numerator, r.p_classical.denominator, r.p_quantum, r.enhancement)
                for r in rows
            ]
            return _retired_writers(fmt, CLASS_COLUMNS, values, "classes", n)
        if command == "table1":
            values = [st.census_row(st.class_table(m)) for m in range(2, n + 1)]
            header = ["n", "n_total", "n_class", "n_quantum", "n_law", "n_supp"]
            return _retired_writers(fmt, header, values, "table1", n)
        if command == "table2":
            rows = sorted(st.class_table(n).rows(nonzero=True), key=lambda r: (-r.z * r.z, r.representative))
            values = [(r.representative, r.orbit_size, r.enhancement) for r in rows]
            return _retired_writers(fmt, ["representative", "orbit_size", "enhancement"], values, "table2", n)
        kind, variant = argv[4], argv[6] if len(argv) > 6 else "marginal"
        values = st.distribution(kind, st.class_table(n), variant=variant).rows
        header = ["category", "classical", "quantum", "approx"]
        return _retired_writers(fmt, header, values, kind, n, variant=variant)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_row_commands(self, capsys, monkeypatch, n, fmt):
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        dist = ["dist", "--n", str(n), "--kind"]
        commands = [
            ["classes", "--n", str(n)],
            ["table2", "--n", str(n)],
            [*dist, "occupied-ports"],
            [*dist, "port-occupancy"],
            [*dist, "port-occupancy", "--variant", "at-least-one"],
            [*dist, "classical-classes"],
        ] + ([["table1", "--n-max", str(n)]] if n >= 2 else [])
        for argv in commands:
            assert run(capsys, *argv, "--format", fmt) == (0, self.expected(argv, fmt), ""), argv

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_ck(self, capsys, n, fmt):
        s = [0] * n
        for p in range(n):
            s[p * p % n] += 1  # one particle at each square mod n
        vec = scattering.ck_decomposition(s)
        extra = {"arrangement": s, "barycenter": [float(vec.as_integer()), 0.0]}
        expected = _retired_writers(fmt, ["k", "c_k"], list(enumerate(vec.coefficients)), "ck", n, **extra)
        assert run(capsys, "ck", "--arrangement", ",".join(map(str, s)), "--format", fmt) == (0, expected, "")

    def test_edge_cells(self, capsys, monkeypatch):
        # csv quotes a field only when it holds a comma: not the one digit of n = 1, but a partition label
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        assert run(capsys, "classes", "--n", "1")[1].splitlines()[1] == "1,1,0,false,1,1,1,1"
        out = run(capsys, "dist", "--n", "3", "--kind", "classical-classes")[1]
        labels = ['"3,0,0",', '"1,1,1",', '"2,1,0",']
        assert [line[: len(label)] for line, label in zip(out.splitlines()[1:], labels)] == labels
        assert out == self.expected(["dist", "--n", "3", "--kind", "classical-classes"], "csv")

    def test_csv_quoting_is_quote_minimal(self):
        cells = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", 1.5, (1, 2), True]
        line = _line("csv", None)(cells)
        assert line == 'plain,"a,b","say ""hi""","two\nlines","cr\rhere",,1.5,"1,2",true\n'
        assert list(csv.reader([line[:-1]], strict=True)) == [["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere",
                                                                "", "1.5", "1,2", "true"]]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestOptions:
    """Each subcommand takes only the options it reads."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["table2", "--n", "3", "--mode", "exact"], 2),
            (["table2", "--n", "3", "--jobs", "2"], 2),
            (["dist", "--n", "3", "--kind", "occupied-ports", "--jobs", "2"], 2),
            (["dist", "--n", "3", "--kind", "occupied-ports", "--mode", "exact"], 2),
            (["verify", "--n", "3", "--mode", "exact"], 2),
            (["verify", "--n", "3", "--format", "json"], 2),
            (["verify", "--n", "3", "--jobs", "2"], 2),
            (["ck", "--arrangement", "0,0,3", "--mode", "exact"], 2),
            (["ck", "--arrangement", "0,0,3", "--jobs", "2"], 2),
            (["ck", "--arrangement", "0,0,3", "--cache-dir", "cache"], 2),
            # the argument lists of the benchmark in perfbench/
            (["table1", "--n-max", "4", "--mode", "exact", "--jobs", "2"], 0),
            (["classes", "--n", "4", "--mode", "exact", "--jobs", "2"], 0),
            (["dist", "--n", "4", "--kind", "port-occupancy", "--variant", "at-least-one"], 0),
            (["classes", "--n", "4", "--format", "json"], 0),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_exit_code(self, capsys, monkeypatch, argv, code):
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        assert _exit_code(argv) == code

    @pytest.mark.parametrize(
        "argv",
        [["classes", "--n", "x"], ["table1", "--n-max", "x"], ["classes", "--n", "3", "--jobs", "x"]],
        ids=" ".join,
    )
    def test_non_integer_exits_2(self, capsys, argv):
        assert _exit_code(argv) == 2
        assert f"argument {argv[-2]}: invalid int value: 'x'" in capsys.readouterr().err

    # int() takes all of these; an option takes ASCII digits after an optional - only
    @pytest.mark.parametrize("text", ["\u0663", "\uff13", "1_0", "+5"])
    @pytest.mark.parametrize(
        "argv", [["classes", "--n"], ["table1", "--n-max"], ["classes", "--n", "3", "--jobs"]], ids=" ".join
    )
    def test_int_options_take_ascii_digits_only(self, capsys, argv, text):
        assert _exit_code([*argv, text]) == 2
        assert f"argument {argv[-1]}: invalid int value: {text!r}" in capsys.readouterr().err


class TestDeterminism:
    def test_jobs_do_not_change_bytes(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["classes", "--n", "6", "--mode", "exact", "--jobs", "1", "--output", str(a)]) == 0
        assert main(["classes", "--n", "6", "--mode", "exact", "--jobs", "3", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_repeat_runs_identical(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            assert main(["dist", "--n", "5", "--kind", "occupied-ports", "--output", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCache:
    def test_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["classes", "--n", "5", "--mode", "exact", "--cache-dir", str(cache)]
        _, first, _ = run(capsys, *args)
        entries = list(cache.glob("*.json"))
        assert len(entries) == 1
        _, second, err = run(capsys, *args)
        assert second == first
        assert "warning" not in err

    def test_float_and_exact_share_one_entry(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        code, _, _ = run(capsys, "classes", "--n", "6", "--cache-dir", str(cache))
        assert code == 0

        def recompute(*args):
            raise AssertionError("second run missed the cache")

        monkeypatch.setattr(st, "class_table", recompute)
        code, _, err = run(capsys, "classes", "--n", "6", "--mode", "exact", "--cache-dir", str(cache))
        assert code == 0, err
        assert [p.name for p in cache.glob("*.json")] == ["v1_columns_n6_exact-glynn-crt.json"]

    def test_entry_holds_only_columns(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, _, _ = run(capsys, "classes", "--n", "5", "--cache-dir", str(cache))
        assert code == 0
        payload = cache_load(cache, "v1_columns_n5_exact-glynn-crt")
        table = st.class_table(5)
        assert payload == {"codes": table.codes, "orbit_sizes": table.orbit_sizes, "z": table.z}
        rows = table.rows()
        assert [sum(x * 6 ** (4 - p) for p, x in enumerate(r.representative)) for r in rows] == table.codes
        assert [r.orbit_size for r in rows] == table.orbit_sizes
        assert table.q0 == [i for i, r in enumerate(rows) if scattering.suppression_Q(r.representative) == 0]
        assert table.z == [rows[i].z for i in table.q0]

    def test_old_rows_entry_neither_read_nor_rewritten(self, capsys, tmp_path):
        # an entry in the layout of the triples, one per class, under its old
        # key, checksummed, with every z zeroed so that reading it would show
        cache = tmp_path / "cache"
        old = [[list(r.representative), r.orbit_size, 0] for r in st.class_table(5).rows()]
        cache_store(cache, "v1_rows_n5_exact-glynn-crt", old)
        entry = cache / "v1_rows_n5_exact-glynn-crt.json"
        before = entry.read_bytes()
        for argv in (["classes", "--n"], ["table2", "--n"], ["dist", "--kind", "occupied-ports", "--n"],
                     ["table1", "--n-max"]):
            _, clean, _ = run(capsys, *argv, "5")
            code, out, err = run(capsys, *argv, "5", "--cache-dir", str(cache))
            assert (code, out, err) == (0, clean, ""), argv
        assert entry.read_bytes() == before
        assert (cache / "v1_columns_n5_exact-glynn-crt.json").is_file()

    def test_corruption_detected_and_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["classes", "--n", "4", "--mode", "exact", "--cache-dir", str(cache)]
        _, first, _ = run(capsys, *args)
        entry = next(cache.glob("*.json"))
        doc = json.loads(entry.read_text())
        doc["payload"]["orbit_sizes"][0] = 999
        entry.write_text(_canonical_json(doc))
        code, second, err = run(capsys, *args)
        assert code == 0
        assert second == first
        assert "checksum mismatch" in err
        # the poisoned entry was replaced by a valid one
        code, third, err = run(capsys, *args)
        assert third == first
        assert "checksum mismatch" not in err

    def test_digit_edited_in_canonical_entry_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["dist", "--n", "4", "--kind", "port-occupancy", "--cache-dir", str(cache)]
        _, first, _ = run(capsys, *args)
        entry = next(cache.glob("*.json"))
        good = entry.read_bytes()
        doc = json.loads(good)
        doc["payload"]["orbit_sizes"][0] += 1  # one orbit-size digit, 4 -> 5
        edited = _canonical_json(doc).encode()
        assert len(edited) == len(good) and sum(a != b for a, b in zip(edited, good)) == 1
        entry.write_bytes(edited)
        code, second, err = run(capsys, *args)
        assert (code, second) == (0, first)
        assert "checksum mismatch" in err
        assert entry.read_bytes() == good

    def test_canonical_hit_is_not_reencoded(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        args = ["dist", "--n", "5", "--kind", "classical-classes", "--cache-dir", str(cache)]
        _, first, _ = run(capsys, *args)
        before = next(cache.glob("*.json")).read_bytes()

        def reencode(obj):
            raise AssertionError("a canonical hit re-encoded its payload")

        monkeypatch.setattr(cli, "_canonical_json", reencode)
        assert run(capsys, *args) == (0, first, "")
        assert next(cache.glob("*.json")).read_bytes() == before

    @pytest.mark.parametrize("content", ["[1, 2]", '"x"'])
    def test_entry_not_an_object_recomputed(self, capsys, tmp_path, content):
        cache = tmp_path / "cache"
        run(capsys, "classes", "--n", "4", "--cache-dir", str(cache))
        entry = next(cache.glob("*.json"))
        good = entry.read_bytes()
        for argv in (["classes"], ["table2"], ["dist", "--kind", "occupied-ports"]):
            _, clean, _ = run(capsys, *argv, "--n", "4")
            entry.write_text(content)
            code, out, err = run(capsys, *argv, "--n", "4", "--cache-dir", str(cache))
            assert (code, out) == (0, clean), argv
            assert "warning: unreadable cache entry" in err
            assert entry.read_bytes() == good

    # Variants of the n = 4 entry, whose columns are _N4; each is checksummed
    # and left to _payload_to_rows or to decoding.
    @pytest.mark.parametrize(
        "payload",
        [
            [[1, 2]],
            {"rows": []},
            {k: v for k, v in _N4.items() if k != "z"},
            {**_N4, "z": -24},
            {**_N4, "orbit_sizes": [4, 8, 4, 4, 8, 4, 2]},  # unequal column lengths
            {**_N4, "z": [-24, -8]},
            {**_N4, "codes": [4.0, 8, 12, 28, 32, 36, 52, 156]},  # not ints
            {**_N4, "orbit_sizes": ["4", 8, 4, 4, 8, 4, 2, 1]},
            {**_N4, "z": [None, -8, 8]},
            {**_N4, "z": [-24, True, 8]},
            # 7 classes, not dihedral_class_count(4) = 8, with orbit sizes summing to 35
            {**_N4, "codes": [4, 8, 12, 28, 32, 36, 52], "orbit_sizes": [4, 8, 4, 4, 8, 4, 3]},
            {**_N4, "orbit_sizes": [5, 8, 4, 4, 8, 4, 2, 1]},  # sum 36, not C(7, 4) = 35
            {**_N4, "orbit_sizes": [0, 12, 4, 4, 8, 4, 2, 1]},
            {**_N4, "codes": [4, 4, 12, 28, 32, 36, 52, 156]},  # a duplicate code
            {**_N4, "codes": [8, 4, 12, 28, 32, 36, 52, 156]},
            {**_N4, "codes": [-4, 8, 12, 28, 32, 36, 52, 156]},  # out of range
            {**_N4, "codes": [4, 8, 12, 28, 32, 36, 52, 625]},
            # (0, 2, 3, 3) sums to 8; its code is 4 (mod 16), like the (0, 2, 0, 2) it replaces
            {**_N4, "codes": [4, 8, 12, 28, 32, 36, 68, 156]},
            {**_N4, "z": [-24, -8, 8, 0]},  # one z more than the classes with Q = 0
            {**_N4, "q0": [0, 5, 6]},  # a column more
        ],
    )
    def test_misshapen_payload_recomputed(self, capsys, tmp_path, payload):
        cache = tmp_path / "cache"
        run(capsys, "classes", "--n", "4", "--cache-dir", str(cache))
        entry = next(cache.glob("*.json"))
        good = entry.read_bytes()
        for argv in (["classes"], ["table2"], ["dist", "--kind", "occupied-ports"]):
            _, clean, _ = run(capsys, *argv, "--n", "4")
            cache_store(cache, entry.stem, payload)  # a valid checksum
            code, out, err = run(capsys, *argv, "--n", "4", "--cache-dir", str(cache))
            assert (code, out) == (0, clean), argv
            assert "warning: unreadable cache entry" in err and "Traceback" not in err
            assert entry.read_bytes() == good

    def test_deeply_nested_entry_recomputed(self, capsys, tmp_path):
        # json.loads recurses once per level, so this checksummed entry is
        # unreadable; cache_store cannot write it, since its encoder recurses too
        cache = tmp_path / "cache"
        entry = cache / f"{cli.cache_key(3)}.json"
        run(capsys, "classes", "--n", "3", "--cache-dir", str(cache))
        good = entry.read_bytes()
        body = b"[" * 200000 + b"]" * 200000
        digest = hashlib.sha256(body).hexdigest().encode()
        nested = cli._ENTRY_HEAD + digest + cli._ENTRY_BODY + body + cli._ENTRY_TAIL
        for argv in (["classes", "--n"], ["table1", "--n-max"], ["table2", "--n"],
                     ["dist", "--kind", "occupied-ports", "--n"], ["verify", "--n"]):
            _, clean, _ = run(capsys, *argv, "3")
            entry.write_bytes(nested)
            code, out, err = run(capsys, *argv, "3", "--cache-dir", str(cache))
            assert (code, out) == (0, clean), argv
            assert f"warning: unreadable cache entry {entry}: " in err and "Traceback" not in err
            assert entry.read_bytes() == good and len(good) == 160

    # sha256 of the n = 8 and n = 10 entries as cache_store writes them; caches
    # filled earlier keep hitting only while these bytes stay the same
    @pytest.mark.parametrize(
        "n, digest",
        [
            (8, "306a22c97943aa315ef533414456e224a14959bd36fc1b6a8eea5e67145eaf64"),
            (10, "7cfe9a2b325283ec2e8783b997ac27f3daa04f989ea0628a0bd8456d2955459e"),
        ],
    )
    def test_entry_bytes_pinned(self, capsys, tmp_path, n, digest):
        cache = tmp_path / "cache"
        assert run(capsys, "table2", "--n", str(n), "--cache-dir", str(cache))[0] == 0
        assert [p.name for p in cache.iterdir()] == [f"{cli.cache_key(n)}.json"]
        assert hashlib.sha256(next(cache.iterdir()).read_bytes()).hexdigest() == digest

    def test_entry_is_canonical_json(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run(capsys, "classes", "--n", "5", "--cache-dir", str(cache))
        text = next(cache.glob("*.json")).read_text()
        assert text == _canonical_json(json.loads(text))

    @pytest.mark.parametrize(
        "layout",
        [
            # indented, as entries were written before they were compact
            lambda doc: json.dumps(doc, indent=1, sort_keys=True),
            lambda doc: json.dumps({k: doc[k] for k in ("payload", "checksum", "schema_version")},
                                   separators=(",", ":")),
            lambda doc: _canonical_json({**doc, "schema_version": 999}),
        ],
        ids=["indented", "key-reordered", "schema-999"],
    )
    def test_other_layout_recomputed(self, capsys, tmp_path, layout):
        # only the bytes cache_store writes are served, even under a valid checksum
        cache = tmp_path / "cache"
        args = ["classes", "--n", "5", "--cache-dir", str(cache)]
        _, clean, _ = run(capsys, *args)
        entry = next(cache.glob("*.json"))
        good = entry.read_bytes()
        entry.write_text(layout(json.loads(good)))
        code, out, err = run(capsys, *args)
        assert (code, out) == (0, clean)
        assert f"warning: unreadable cache entry {entry}: not in the layout cache_store writes" in err
        assert entry.read_bytes() == good

    def test_hits_load_no_numpy(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        table1 = ["table1", "--n-max", "6"]
        status, out = run_fresh(*table1, *cache)
        assert status["exit"] == 0 and status["numpy"]  # the misses ran the kernel
        assert out == run(capsys, *table1)[1]
        hits = [
            ["dist", "--n", "6", "--kind", "classical-classes"],
            ["classes", "--n", "6", "--format", "json"],
            ["classes", "--n", "6"],
            table1,
            ["table2", "--n", "6"],
        ]
        for argv in hits:
            status, out = run_fresh(*argv, *cache)
            assert status == {"exit": 0, "numpy": [], "dataclasses": False, "_hashlib": True}, argv
            assert out == run(capsys, *argv)[1]
        # only the cache hashes, so a run without one does not load OpenSSL
        for argv in (["ck", "--arrangement", "0,1,2,1,0,2"], ["classes", "--n", "6"]):
            status, out = run_fresh(*argv)
            assert (status["exit"], status["_hashlib"]) == (0, False), argv
            assert out == run(capsys, *argv)[1]

    def test_dist_hit_decodes_only_nonzero_rows(self, capsys, tmp_path, monkeypatch):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        dist = ["dist", "--n", "10", "--kind", "port-occupancy"]
        code, clean, _ = run(capsys, *dist, *cache)
        assert code == 0
        table = st.class_table(10)
        real, decoded = st.decode_codes, []

        def counting(n, codes):
            decoded.append(len(codes))
            return real(n, codes)

        monkeypatch.setattr(st, "decode_codes", counting)
        assert run(capsys, *dist, *cache) == (0, clean, "")
        assert decoded == [430] == [len(table.z) - table.z.count(0)]

    def test_classes_hit_builds_only_nonzero_rows(self, capsys, tmp_path, monkeypatch):
        # classes renders and certifies from the columns, so neither a miss nor a hit builds a row
        cache = ["--cache-dir", str(tmp_path / "cache")]
        classes = ["classes", "--n", "10"]
        clean = run(capsys, *classes)[1]
        real, built = st.ClassProbabilityRow, []
        monkeypatch.setattr(st, "ClassProbabilityRow", lambda *cells: built.append(cells) or real(*cells))
        assert run(capsys, *classes, *cache) == (0, clean, "")
        assert run(capsys, *classes, *cache) == (0, clean, "")
        assert run(capsys, *classes, *cache, "--format", "json")[0] == 0
        assert built == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_code_whose_digits_miss_n_recomputed(self, capsys, tmp_path, fmt):
        # 29 is (0, 1, 0, 4) in base 5, in place of the 28 of (0, 1, 0, 3): still
        # ascending, with Q != 0 (29 mod 16 != 4), so only classes decodes it
        cache = tmp_path / "cache"
        args = ["classes", "--n", "4", "--format", fmt]
        _, clean, _ = run(capsys, *args)
        run(capsys, *args, "--cache-dir", str(cache))
        entry = next(cache.glob("*.json"))
        good = entry.read_bytes()
        cache_store(cache, entry.stem, {**_N4, "codes": [4, 8, 12, 29, 32, 36, 52, 156]})  # a valid checksum
        code, out, err = run(capsys, *args, "--cache-dir", str(cache))
        assert (code, out) == (0, clean)
        assert f"warning: unreadable cache entry {entry}: expected codes of arrangements of 4" in err
        assert entry.read_bytes() == good

    def test_schema_version_mismatch_invalidates(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["classes", "--n", "3", "--mode", "exact", "--cache-dir", str(cache)]
        _, first, _ = run(capsys, *args)
        entry = next(cache.glob("*.json"))
        doc = json.loads(entry.read_text())
        doc["schema_version"] = 999
        entry.write_text(json.dumps(doc))
        code, second, _ = run(capsys, *args)
        assert code == 0
        assert second == first
        assert json.loads(entry.read_text())["schema_version"] == SCHEMA_VERSION

    def test_entry_from_another_kernel_not_served(self, capsys, tmp_path):
        args = ["classes", "--n", "4", "--mode", "exact"]
        _, clean, _ = run(capsys, *args)
        donor = tmp_path / "donor"
        run(capsys, *args, "--cache-dir", str(donor))
        payload = cache_load(donor, next(donor.glob("*.json")).stem)
        payload["z"][0] += 1
        # valid, checksummed entries under the names exact entries had
        # before keys named their kernel, before they held triples, and
        # before the kernel was Glynn's
        cache = tmp_path / "cache"
        cache_store(cache, "v1_classes_n4_exact_tol1e-10", payload)
        cache_store(cache, "v1_classes_n4_exact-ryser-crt", [{"representative": [0, 0, 0, 4]}])
        cache_store(cache, "v1_rows_n4_exact-ryser-crt", payload)
        stale = sorted(cache.glob("*.json"))
        before = [p.read_bytes() for p in stale]
        code, out, err = run(capsys, *args, "--cache-dir", str(cache))
        assert code == 0
        assert out == clean
        assert "warning" not in err
        assert [p.read_bytes() for p in stale] == before
        assert len(list(cache.glob("*.json"))) == 4

    def test_tampered_rows_fail_the_certificate(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, _, _ = run(capsys, "classes", "--n", "6", "--cache-dir", str(cache))
        assert code == 0
        key = "v1_columns_n6_exact-glynn-crt"
        payload = cache_load(cache, key)
        z = payload["z"]
        z[next(i for i, zi in enumerate(z) if zi)] += 1
        cache_store(cache, key, payload)  # a valid checksum over the changed z
        for argv in (["classes", "--n"], ["table2", "--n"], ["dist", "--kind", "occupied-ports", "--n"],
                     ["table1", "--n-max"]):
            code, out, err = run(capsys, *argv, "6", "--cache-dir", str(cache))
            assert (code, out) == (3, ""), argv
            assert err.startswith("error: ") and "n=6" in err
        code, out, _ = run(capsys, "verify", "--n", "6", "--cache-dir", str(cache))
        assert code == 1
        assert "FAIL normalization" in out

    def test_failed_build_never_cached(self, capsys, tmp_path, monkeypatch):
        # a kernel that adds 1 to each z != 0: every build fails the certificate,
        # which runs before the build can be stored
        real = st.exact_integer_amplitudes
        monkeypatch.setattr(st, "exact_integer_amplitudes", lambda ts: [z + 1 if z else 0 for z in real(ts)])
        cache = tmp_path / "cache"

        def entries():
            return sorted(p.name for p in cache.iterdir()) if cache.exists() else []

        for argv in (["classes", "--n"], ["table2", "--n"], ["dist", "--kind", "occupied-ports", "--n"],
                     ["table1", "--n-max"]):
            code, out, err = run(capsys, *argv, "6", "--cache-dir", str(cache))
            assert (code, out) == (3, ""), argv
            assert err.startswith("error: classes at n=") and err.rstrip().endswith("not 1"), argv
            assert entries() == [], argv
        code, out, _ = run(capsys, "verify", "--n", "6", "--cache-dir", str(cache))
        assert code == 1
        oracle, normalization = out.splitlines()  # none of the lines that need the table
        assert oracle == "PASS permanent-oracle-agreement: max relative deviation below 1e-10"
        assert normalization.startswith("FAIL normalization: classes at n=6 carry probability ")
        assert normalization.endswith(", not 1")
        assert entries() == []

    @pytest.mark.parametrize(
        "argv", [["dist", "--kind", "occupied-ports", "--n"], ["table2", "--n"], ["table1", "--n-max"]], ids=" ".join
    )
    def test_q0_code_whose_digits_miss_n_recomputed(self, capsys, tmp_path, argv):
        # 2886 is (0, 1, 1, 2, 6, 2) in base 7, in place of the 2850 of the
        # anomalous zero (0, 1, 1, 2, 1, 1): Q = 0, still ascending, and z = 0,
        # so none of these commands decodes it, yet the certificate reads its digits
        cache = tmp_path / "cache"
        _, clean, _ = run(capsys, *argv, "6")
        assert run(capsys, *argv, "6", "--cache-dir", str(cache))[0] == 0
        entry = cache / f"{cli.cache_key(6)}.json"
        good = entry.read_bytes()
        payload = cache_load(cache, entry.stem)
        codes = payload["codes"]
        codes[codes.index(2850)] = 2886
        assert codes == sorted(codes) and 2886 % 36 == 6
        cache_store(cache, entry.stem, payload)  # a valid checksum
        code, out, err = run(capsys, *argv, "6", "--cache-dir", str(cache))
        assert (code, out) == (0, clean)
        assert f"warning: unreadable cache entry {entry}: expected codes of arrangements of 6" in err
        assert entry.read_bytes() == good

    @pytest.mark.parametrize(
        "argv",
        [["classes", "--n"], ["classes", "--format", "json", "--n"], ["table2", "--n"],
         ["dist", "--kind", "occupied-ports", "--n"], ["table1", "--n-max"]],
        ids=" ".join,
    )
    def test_certificate_precedes_the_output_file(self, capsys, tmp_path, argv):
        # the rows are rendered as they are written, but the certificate runs before --output is opened
        cache = tmp_path / "cache"
        assert run(capsys, "classes", "--n", "6", "--cache-dir", str(cache))[0] == 0
        key = "v1_columns_n6_exact-glynn-crt"
        payload = cache_load(cache, key)
        z = payload["z"]
        z[next(i for i, zi in enumerate(z) if zi)] += 1
        cache_store(cache, key, payload)  # a valid checksum over the changed z
        target = tmp_path / "out"
        code, out, err = run(capsys, *argv, "6", "--cache-dir", str(cache), "--output", str(target))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "n=6" in err
        assert not target.exists()

    def test_unusable_cache_dir_exits_4(self, capsys, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        code, _, err = run(
            capsys, "classes", "--n", "3", "--cache-dir", str(blocker / "sub")
        )
        assert code == 4

    def test_failed_replace_keeps_previous_entry(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache_store(cache, "k", {"rows": [1]})
        entry = next(cache.glob("*.json"))
        before = entry.read_bytes()

        def fail(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(CacheCorruptionError):
            cache_store(cache, "k", {"rows": [2]})
        assert entry.read_bytes() == before
        assert cache_load(cache, "k") == {"rows": [1]}
        code, _, err = run(capsys, "classes", "--n", "3", "--cache-dir", str(cache))
        assert code == 4
        assert "simulated failure" in err
        assert [p.name for p in cache.iterdir()] == [entry.name]

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("MULTIPORT_CACHE_DIR", str(cache))
        code, _, _ = run(capsys, "classes", "--n", "3")
        assert code == 0
        assert list(cache.glob("*.json"))
