import csv
import json
import math
import os
from fractions import Fraction

import pytest

from multiport import cli, scattering
from multiport.cli import SCHEMA_VERSION, cache_load, cache_store, main
from multiport.errors import CacheCorruptionError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


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

    def test_kernel_check_failure_exits_3(self, capsys, monkeypatch):
        real = scattering._ryser_residues

        def corrupted(t, primes, powers):
            residues = real(t, primes, powers)
            residues[0] = (residues[0] + 1) % primes[0]
            return residues

        monkeypatch.setattr(scattering, "_ryser_residues", corrupted)
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, _, err = run(capsys, "classes", "--n", "4", "--mode", "exact")
        assert code == 3
        assert err.startswith("error: ") and "spare prime" in err
        assert "Traceback" not in err


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

    def test_float_mode_marks_supp(self, capsys):
        code, out, _ = run(capsys, "table1", "--n-max", "5", "--mode", "float")
        _, rows = parse_csv(out)
        assert all(r[-1] == "requires exact mode" for r in rows)


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
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--n", "7"])
        assert exc.value.code == 2


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
        assert abs(complex(*doc["barycenter"])) < 1e-9

    def test_bad_string_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ck", "--arrangement", "1,frog"])
        assert exc.value.code == 2

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
        assert out.count("PASS") == 5

    def test_n6_lists_anomalous(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 0
        assert "0,1,2,1,0,2" in out and "0,1,1,2,1,1" in out

    def test_n7_all_classes_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "7")
        assert code == 0
        assert "anomalous-suppressions: none" in out

    def test_cap(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "12")
        assert code == 3

    def test_wrong_amplitude_fails_normalization(self, capsys, monkeypatch):
        real = scattering.exact_integer_amplitude

        def off_by_one(s):
            z = real(s)
            return z + 1 if tuple(s) == (0, 0, 0, 0, 0, 6) else z

        monkeypatch.setattr(scattering, "exact_integer_amplitude", off_by_one)
        monkeypatch.delenv("MULTIPORT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 1
        assert "FAIL normalization" in out


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

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "classes", "--n", "3", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("representative,")


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

        monkeypatch.setattr(cli, "compute_class_rows", recompute)
        code, _, err = run(capsys, "classes", "--n", "6", "--mode", "exact", "--cache-dir", str(cache))
        assert code == 0, err
        assert [p.name for p in cache.glob("*.json")] == ["v1_classes_n6_exact-ryser-crt.json"]

    def test_corruption_detected_and_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["classes", "--n", "4", "--mode", "exact", "--cache-dir", str(cache)]
        _, first, _ = run(capsys, *args)
        entry = next(cache.glob("*.json"))
        doc = json.loads(entry.read_text())
        doc["payload"][0]["orbit_size"] = 999
        entry.write_text(json.dumps(doc))
        code, second, err = run(capsys, *args)
        assert code == 0
        assert second == first
        assert "checksum mismatch" in err
        # the poisoned entry was replaced by a valid one
        code, third, err = run(capsys, *args)
        assert third == first
        assert "checksum mismatch" not in err

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
        payload[0]["p_quantum"] = 0.5
        # a valid, checksummed entry under the name exact entries had
        # before keys named their kernel
        cache = tmp_path / "cache"
        cache_store(cache, "v1_classes_n4_exact_tol1e-10", payload)
        stale = cache / "v1_classes_n4_exact_tol1e-10.json"
        before = stale.read_bytes()
        code, out, err = run(capsys, *args, "--cache-dir", str(cache))
        assert code == 0
        assert out == clean
        assert "warning" not in err
        assert stale.read_bytes() == before
        assert len(list(cache.glob("*.json"))) == 2

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
