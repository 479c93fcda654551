import json
from decimal import Decimal

import pytest

from charprime.beta import beta_closed
from charprime.report import (ERRATA, MATCH_UNITS, TABLE_IDS, build_s12,
                              build_s13, build_s21, build_s23_26, build_s28,
                              build_table, to_csv, to_json,
                              to_json_obj, to_text)

# verdict expectations for every row that is not a plain match
EXPECTED_NON_MATCH = {
    ("s13", "I"): "erratum",
    ("s21", "T"): "erratum",
    ("s21", "U"): "erratum",
    ("s23_26", "T"): "erratum",
    ("s23_26", "U"): "erratum",
    ("s28", "n=1"): "erratum",
    ("s28", "n=3"): "erratum",
    ("s28", "n=5"): "erratum",
    ("s28", "n=11"): "erratum",
    ("s28", "n=13"): "erratum",
}


@pytest.fixture(scope="module")
def tables(request):
    from charprime.cli import RunConfig
    cfg = RunConfig()
    return {tid: build_table(tid, cfg) for tid in TABLE_IDS}


def test_all_tables_clean(tables):
    for tid, table in tables.items():
        assert table.clean, tid
        for row in table.rows:
            expected = EXPECTED_NON_MATCH.get((tid, row.label), "match")
            assert row.verdict == expected, (tid, row.label, row.delta)


def test_match_rows_within_tolerance(tables):
    for tid, table in tables.items():
        for row in table.rows:
            if row.verdict == "match":
                assert abs(row.delta) <= MATCH_UNITS, (tid, row.label)
            else:
                assert abs(row.delta) > MATCH_UNITS, (tid, row.label)


def test_s12_values(tables):
    rows = {r.label: r for r in tables["s12"].rows}
    assert rows["A"].recomputed == "0.7853981634"
    assert rows["A"].delta == 0
    assert rows["h"].printed == "0.7160154603"
    assert rows["h"].delta == 0
    assert rows["b"].delta == 1   # printed value truncates the repeating 6


def test_s13_rows(tables):
    rows = {r.label: r for r in tables["s13"].rows}
    assert [r.label for r in tables["s13"].rows] == list("BCDEFGHIK")
    assert rows["I"].recomputed == "0.669245"
    assert rows["I"].delta == -30000
    assert rows["K"].recomputed == "0.669359"
    assert all(abs(rows[L].delta) <= 1 for L in "BCDEFGHK")


def test_s21_rows(tables):
    rows = {r.label: r for r in tables["s21"].rows}
    assert rows["P"].recomputed == "0.9689461"
    assert rows["R"].recomputed == "0.9995545"
    assert rows["R"].delta == -2
    assert rows["T"].delta == -3
    assert rows["U"].delta == -3
    assert rows["R-Q"].delta == -2
    assert rows["S-R"].delta == 0
    diffs = [rows[label].recomputed for label in ("Q-P", "R-Q", "S-R", "T-S", "U-T", "V-U")]
    assert diffs == ["0.0272117", "0.0033967", "0.0003952",
                     "0.0000447", "0.0000050", "0.0000006"]
    q_minus_p = beta_closed(5, 20).value - beta_closed(3, 20).value
    assert format(q_minus_p.round_decimal(7), "f") == rows["Q-P"].recomputed


def test_s23_26_rows(tables):
    rows = {r.label: r for r in tables["s23_26"].rows}
    assert rows["P"].recomputed == "0.0322522"
    assert rows["Q"].recomputed == "0.0038581"
    assert rows["R"].recomputed == "0.0004457"
    assert rows["O after P"].recomputed == "0.3358228"
    assert rows["O after Q"].recomputed == "0.3350512"
    assert rows["O after R"].recomputed == "0.3349876"
    assert rows["O"].recomputed == "0.3349814"
    assert rows["O"].verdict == "match"
    assert rows["T"].verdict == "erratum"
    assert rows["U/13"].recomputed == "0.0000000"


def test_s28_rows(tables):
    rows = {r.label: r for r in tables["s28"].rows}
    assert rows["n=1"].recomputed == "0.3349813"
    assert rows["n=3"].recomputed == "0.0322525"
    assert rows["n=5"].recomputed == "0.0038581"
    assert rows["n=5"].delta == -21
    assert rows["n=7"].recomputed == "0.0004457"
    assert rows["n=9"].recomputed == "0.0000503"
    assert rows["n=11"].recomputed == "0.0000056"
    assert rows["n=13"].recomputed == "0.0000006"


def test_s28_reads_the_assembly_terms(tables):
    # W(3)..W(13) are the assembly's terms, certified four digits past
    # --digits, so a coarse --digits still certifies the seven printed
    # places, and --primes is not read.
    from charprime.cli import RunConfig
    assert build_s28(RunConfig(digits=3, primes=1)).rows == tables["s28"].rows
    with pytest.raises(ValueError, match="s28/n=1 is not certified to 7 places"):
        build_s28(RunConfig(digits=3, max_k=1))


def test_unknown_table_rejected(config):
    with pytest.raises(ValueError):
        build_table("s99", config)


def test_errata_manifest_is_consistent(tables):
    seen = set()
    for entry in ERRATA:
        table = tables[entry.table_id]
        row = {r.label: r for r in table.rows}[entry.label]
        assert row.printed == entry.printed, entry
        assert row.recomputed == entry.recomputed, entry
        assert row.verdict == "erratum"
        assert entry.note
        key = (entry.table_id, entry.label)
        assert key not in seen
        seen.add(key)
    s13 = {r.label: r.verdict for r in tables["s13"].rows}
    assert s13["I"] == "erratum" and ("s13", "I") in seen
    assert s13["B"] == "match" and ("s13", "B") not in seen


def test_json_roundtrip_identity(tables):
    for table in tables.values():
        assert json.loads(to_json(table)) == to_json_obj(table)


def test_json_schema_fields(tables):
    obj = json.loads(to_json(tables["s28"]))
    assert set(obj) == {"table_id", "rows", "config", "version"}
    assert set(obj["rows"][0]) == {"label", "printed", "recomputed", "delta", "verdict"}
    assert obj["config"]["digits"] == 7
    assert obj["version"]


def test_csv_output(tables):
    text = to_csv(tables["s13"])
    lines = text.strip().split("\n")
    assert lines[0] == "label,printed,recomputed,delta,verdict"
    assert len(lines) == 10
    assert lines[8].startswith("I,0.699245,0.669245,-30000,erratum")


def test_text_output_styles(tables):
    plain = to_text(tables["s28"])
    assert "0.3349813" in plain and "erratum" in plain
    comma = to_text(tables["s28"], "euler-comma")
    assert "0,3349813" in comma
    assert "0.3349813" not in comma


def test_builders_are_deterministic(config):
    a = to_json(build_s21(config))
    b = to_json(build_s21(config))
    assert a == b
