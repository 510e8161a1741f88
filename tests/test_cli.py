from __future__ import annotations

import argparse
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hermgrs import cli, grscode, puncture
from hermgrs.cli import main


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.strip().startswith("{") else out


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line
    )


def test_field_info(capsys):
    rc, doc = run_json(capsys, ["field-info", "--p", "2", "--h", "3"])
    assert rc == 0
    assert doc["schema"] == 1
    r = doc["result"]
    assert (r["q"], r["q2"], r["subfield_size"]) == (8, 64, 8)
    rc, doc = run_json(capsys, ["field-info", "--q", "49"])
    assert rc == 0
    assert (doc["result"]["p"], doc["result"]["h"], doc["result"]["q2"]) == (7, 2, 2401)


def test_field_info_invalid(capsys):
    assert main(["field-info", "--q", "6"]) == 2
    assert main(["field-info", "--q", "128"]) == 2
    assert main(["field-info", "--p", "2"]) == 2  # missing --h


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["puncture", "--q", "4", "--k", "3", "--badflag"])
    assert exc.value.code == 2


# a toy-size argv per command that sets every option it reads; "code.json" is
# the record of "construct custom" below, written by the tests that read it
TOY_ARGV = {
    "field-info": ["--q", "3"],
    "puncture": ["--q", "3", "--k", "2", "--method", "all", "--check-min-weight", "--min-weight-cap", "1000",
                 "--direct-cap-q", "5", "--g-samples", "1", "--distribution", "--distribution-cap", "1000",
                 "--seed", "5", "--threads", "2"],
    "sweep": ["--q", "3", "--format", "json", "--min-weight-cap", "1000", "--threads", "2"],
    "verify": ["code.json", "--mds-cap", "1", "--enum-cap", "100", "--include-generator", "--threads", "2"],
    "construct example1": ["--q", "5", "--k", "4", "--t", "3", "--f", "1"],
    "construct example2": ["--q", "7", "--k", "2", "--t", "2", "--r", "9,17"],
    "construct example3": ["--q", "5", "--k", "2", "--t", "4", "--r", "9,17"],
    "construct even-min": ["--q", "4", "--k", "2", "--r", "6"],
    "construct odd-min": ["--q", "5", "--k", "3", "--r", "1"],
    "construct qsq-plus-one": ["--q", "8", "--e", "8"],
    "construct custom": ["--q", "3", "--k", "1", "--g", "1", "--c", "0"],
}
# options a config does not echo: where the output goes, --q (echoed as the
# p and h it resolves to), the generator verify adds to its result, and
# verify's --threads, kept because the benchmark's verify runs pass it
NOT_ECHOED = {"output", "q", "verify include_generator", "verify threads"}


def _commands(parser: argparse.ArgumentParser, path: str = "") -> dict[str, argparse.ArgumentParser]:
    """Every parser that runs a command, by its subcommand path."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: parser}
    return {key: leaf for name, child in subs[0].choices.items()
            for key, leaf in _commands(child, f"{path} {name}".strip()).items()}


def _settable(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def _write_toy_record(directory) -> None:
    argv = ["construct", "custom", *TOY_ARGV["construct custom"], "--output", str(directory / "code.json")]
    assert main(argv) == 0


def test_the_parser_takes_76_settable_values():
    commands = _commands(cli.build_parser())
    assert sorted(commands) == sorted(TOY_ARGV)
    assert sum(len(_settable(leaf)) for leaf in commands.values()) == 76 == 104 - len(REMOVED_FLAGS)


@pytest.mark.parametrize("command", sorted(TOY_ARGV))
def test_every_accepted_option_is_echoed_in_the_config(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    _write_toy_record(tmp_path)
    capsys.readouterr()
    argv = [*command.split(), *TOY_ARGV[command]]
    args = cli.build_parser().parse_args(argv)
    rc, doc = run_json(capsys, argv)
    assert rc == 0
    for action in _settable(_commands(cli.build_parser())[command]):
        if {action.dest, f"{command} {action.dest}"} & NOT_ECHOED:
            continue
        assert action.dest in doc["config"], f"{command} accepts {action.dest} and ignores it"
        if getattr(args, action.dest) is not None:  # --p and --h are resolved from --q
            assert doc["config"][action.dest] == getattr(args, action.dest)


# flags each of these commands does not read, so argparse refuses them
REMOVED_FLAGS = (
    [("field-info", flag) for flag in ("--seed", "--threads", "--format")]
    + [("puncture", "--format"), ("verify", "--seed"), ("verify", "--format"), ("sweep", "--seed")]
    + [(f"construct {family}", flag) for family in cli.FAMILIES for flag in ("--seed", "--threads", "--format")]
)
KEPT_FLAGS = [
    ["puncture", "--q", "3", "--k", "2", "--g-samples", "1", "--seed", "1"],
    ["sweep", "--q", "3", "--format", "json", "--threads", "1"],
    ["verify", "code.json", "--threads", "1"],
]


@pytest.mark.parametrize("argv,code", [
    pytest.param([*command.split(), *TOY_ARGV[command], flag, "json" if flag == "--format" else "1"], 2,
                 id=f"{command} {flag}")
    for command, flag in REMOVED_FLAGS
] + [pytest.param(argv, 0, id=" ".join(argv)) for argv in KEPT_FLAGS])
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    _write_toy_record(tmp_path)
    capsys.readouterr()
    if code == 0:
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {argv[-2]}" in captured.err


def test_puncture_q4_k3(capsys):
    rc, doc = run_json(
        capsys,
        ["puncture", "--p", "2", "--h", "2", "--k", "3", "--method", "all",
         "--check-min-weight", "--g-samples", "10"],
    )
    assert rc == 0
    r = doc["result"]
    assert r["dim"] == 8 == r["expected_dim"]
    assert r["methods_agree"] is True
    assert r["min_weight"]["value"] == 8
    assert r["min_weight"]["mode"] == "exhaustive"
    assert r["formula_value"] == 8 and r["agrees"] is True
    assert r["g_form_samples"] == {"count": 10, "all_members": True}
    assert len(r["basis"]) == 8 and len(r["basis"][0]) == 17


def test_puncture_distribution_no_weight_17(capsys):
    rc, doc = run_json(
        capsys,
        ["puncture", "--q", "4", "--k", "3", "--method", "direct",
         "--check-min-weight", "--distribution"],
    )
    assert rc == 0
    r = doc["result"]
    assert r["min_weight"]["value"] == 8 and r["agrees"] is True
    dist = r["weight_distribution"]
    assert "17" not in dist
    assert sum(dist.values()) == 4**8


def test_puncture_q5_k2(capsys):
    rc, doc = run_json(
        capsys, ["puncture", "--p", "5", "--h", "1", "--k", "2", "--check-min-weight"]
    )
    assert rc == 0
    r = doc["result"]
    assert r["dim"] == 22
    assert r["min_weight"]["value"] == 4 == r["formula_value"]


def test_puncture_k_equals_q_all_ones_basis(capsys):
    rc, doc = run_json(
        capsys, ["puncture", "--p", "2", "--h", "3", "--k", "8", "--method", "direct"]
    )
    assert rc == 0
    r = doc["result"]
    assert r["dim"] == 1
    assert all(v == 1 for v in r["basis"][0])


def test_puncture_direct_cap(capsys):
    rc = main(["puncture", "--q", "16", "--k", "3", "--method", "direct"])
    assert rc == 3  # direct solver capped at q <= 11


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc = main(
        ["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
         "--output", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    r = doc["result"]
    assert r["quantum"] == [12, 4, 5, 5]
    assert r["params"] == {"n": 12, "k": 4, "d": 9, "verified_d": True}
    assert r["self_orthogonal"] is True

    rc, vdoc = run_json(capsys, ["verify", str(out)])
    assert rc == 0
    vr = vdoc["result"]
    assert vr["self_orthogonal"] is True
    assert vr["quantum"] == [12, 4, 5, 5]
    assert vr["matches_file"] == {"self_orthogonal": True, "quantum": True}

    rc, vdoc = run_json(capsys, ["verify", str(out), "--include-generator"])
    assert rc == 0
    gen = vdoc["result"]["generator"]
    assert len(gen) == 4 and len(gen[0]) == 12


def test_construct_and_verify_build_the_quantum_parameters_once(tmp_path, monkeypatch, capsys):
    """construct builds them once for its report and its record; verify once
    when the Gram matrix vanishes and not at all when it does not."""
    built = []
    build = grscode.CodeParams.of_self_orthogonal.__func__
    monkeypatch.setattr(grscode.CodeParams, "of_self_orthogonal",
                        classmethod(lambda cls, code: built.append(code.n) or build(cls, code)))
    out = tmp_path / "code.json"
    assert main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
                 "--output", str(out)]) == 0
    assert built == [12]
    rc, vdoc = run_json(capsys, ["verify", str(out)])
    assert rc == 0 and vdoc["result"]["quantum"] == [12, 4, 5, 5]
    assert built == [12, 12]
    doc = json.loads(out.read_text())
    doc["result"]["thetas"][0] = doc["result"]["thetas"][0] % 24 + 1
    out.write_text(json.dumps(doc))
    rc, vdoc = run_json(capsys, ["verify", str(out)])
    assert rc == 0 and vdoc["result"]["self_orthogonal"] is False and vdoc["result"]["quantum"] is None
    assert built == [12, 12]


def test_verify_detects_perturbed_theta(tmp_path, capsys):
    out = tmp_path / "code.json"
    main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
          "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["result"]["thetas"][0] = doc["result"]["thetas"][0] % 24 + 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, vdoc = run_json(capsys, ["verify", str(bad)])
    assert rc == 0
    assert vdoc["result"]["self_orthogonal"] is False
    assert vdoc["result"]["matches_file"]["self_orthogonal"] is False


def test_verify_rejects_malformed(tmp_path, capsys):
    out = tmp_path / "code.json"
    main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
          "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["result"]["support"][1] = doc["result"]["support"][0]
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 4
    notjson = tmp_path / "garbage.json"
    notjson.write_text("{nope")
    assert main(["verify", str(notjson)]) == 4
    assert main(["verify", str(tmp_path / "missing.json")]) == 4


def test_verify_refuses_a_file_that_is_not_utf8_with_exit_4(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(["verify", str(bad)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed input" in captured.err


def _move_first_nonzero_onto_first_zero(vector):
    moved = list(vector)
    i = next(pos for pos, v in enumerate(moved) if v)
    j = moved.index(0)
    moved[i], moved[j] = 0, moved[i]
    return moved


@pytest.mark.parametrize(
    "edit",
    [
        lambda v: ["x"],
        lambda v: v[:-1],
        lambda v: " ".join(map(str, v)),
        _move_first_nonzero_onto_first_zero,
    ],
    ids=["x", "too-short", "not-a-list", "entry-moved"],
)
def test_verify_refuses_an_edited_puncture_vector_with_exit_4(tmp_path, capsys, edit):
    out = tmp_path / "code.json"
    main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
          "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["result"]["puncture_vector"] = edit(doc["result"]["puncture_vector"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed input" in captured.err


def test_verify_refuses_a_scalar_puncture_vector_as_not_a_list(tmp_path, capsys):
    """Index 5 is outside GF(5), but a scalar is refused for its shape first."""
    out = tmp_path / "code.json"
    main(["construct", "custom", "--q", "5", "--k", "2", "--g", "0", "--c", "1", "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["result"]["puncture_vector"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "not a list of length q^2+1 = 26" in captured.err


def test_construct_qsq(capsys, tmp_path):
    rc, doc = run_json(capsys, ["construct", "qsq-plus-one", "--q", "8"])
    assert rc == 0
    assert doc["result"]["quantum"] == [65, 51, 8, 8]
    assert main(["construct", "qsq-plus-one", "--q", "4"]) == 2


def test_construct_custom(capsys):
    rc, doc = run_json(
        capsys,
        ["construct", "custom", "--q", "4", "--k", "2", "--g", "0", "--c", "1"],
    )
    assert rc == 0
    assert doc["result"]["params"]["n"] == 16
    assert doc["result"]["self_orthogonal"] is True
    # precise refusal: zero vector
    assert main(["construct", "custom", "--q", "4", "--k", "2", "--g", "0", "--c", "0"]) == 2


def test_construct_even_odd(capsys):
    rc, doc = run_json(capsys, ["construct", "even-min", "--q", "8", "--k", "5"])
    assert rc == 0
    assert doc["result"]["params"]["n"] == 16
    rc, doc = run_json(capsys, ["construct", "odd-min", "--q", "9", "--k", "6"])
    assert rc == 0
    assert doc["result"]["params"]["n"] == 20


def test_sweep_q4(capsys):
    rc = main(["sweep", "--q", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "p,h,q,k,dim,formula,witness_weight,exhaustive_weight,mode,agrees"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[3] for r in rows] == ["1", "2", "3", "4"]
    assert [r[5] for r in rows] == ["2", "4", "8", "17"]
    assert [r[7] for r in rows] == ["2", "4", "8", "17"]  # all exhaustive at q=4
    assert all(r[9] == "True" for r in rows)


def test_sweep_q5_json(capsys):
    rc, doc = run_json(capsys, ["sweep", "--q", "5", "--format", "json"])
    assert rc == 0
    rows = doc["result"]
    assert [r["formula"] for r in rows] == [2, 4, 6, 12, 26]
    assert [r["witness_weight"] for r in rows] == [2, 4, 6, 12, 26]
    assert all(r["agrees"] for r in rows)


def test_json_outputs_are_deterministic_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["puncture", "--q", "4", "--k", "2", "--check-min-weight",
            "--g-samples", "5", "--seed", "7"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())
    assert a.read_text().count('"timestamp"') == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1"],
        ["construct", "example2", "--q", "7", "--k", "3", "--t", "4", "--r", "9"],
        ["construct", "even-min", "--q", "8", "--k", "6"],
        ["construct", "odd-min", "--q", "7", "--k", "5"],
        ["construct", "qsq-plus-one", "--q", "8"],
        ["construct", "custom", "--q", "4", "--k", "2", "--g", "0", "--c", "1"],
    ],
)
def test_verify_accepts_every_construct_output(tmp_path, capsys, argv):
    out = tmp_path / "code.json"
    assert main(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    rc, vdoc = run_json(capsys, ["verify", str(out)])
    assert rc == 0
    vr = vdoc["result"]
    assert vr["self_orthogonal"] is True
    assert all(vr["matches_file"].values())


def test_sweep_is_thread_count_independent(capsys):
    main(["sweep", "--q", "5", "--threads", "1"])
    one = capsys.readouterr().out
    main(["sweep", "--q", "5", "--threads", "4"])
    four = capsys.readouterr().out
    # the echoed config differs only in the threads value
    assert [l for l in one.splitlines() if not l.startswith("#")] == [
        l for l in four.splitlines() if not l.startswith("#")
    ]
    # a level scan, a full enumeration and both P(C) methods
    argv = ["puncture", "--q", "5", "--k", "4", "--method", "all", "--check-min-weight", "--distribution"]
    rc_one, doc_one = run_json(capsys, argv + ["--threads", "1"])
    rc_four, doc_four = run_json(capsys, argv + ["--threads", "4"])
    assert rc_one == rc_four == 0
    assert (doc_one["config"]["threads"], doc_four["config"]["threads"]) == (1, 4)
    assert doc_one["result"] == doc_four["result"]


@pytest.mark.parametrize("argv", [
    ["custom", "--q", "4", "--k", "2", "--g", "1,,2", "--c", "0"],
    ["example2", "--q", "7", "--k", "3", "--t", "4", "--r", "9,"],
])
def test_integer_lists_with_an_empty_item_are_refused(capsys, argv):
    assert main(["construct", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "empty item" in captured.err


def test_seed_changes_are_echoed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["puncture", "--q", "4", "--k", "2", "--g-samples", "3", "--seed", "1",
          "--output", str(a)])
    main(["puncture", "--q", "4", "--k", "2", "--g-samples", "3", "--seed", "2",
          "--output", str(b)])
    assert json.loads(a.read_text())["config"]["seed"] == 1
    assert json.loads(b.read_text())["config"]["seed"] == 2


def test_construct_and_verify_compute_the_gram_once_each(tmp_path, capsys, monkeypatch):
    calls = []
    gram = grscode.hermitian_gram
    monkeypatch.setattr(grscode, "hermitian_gram", lambda code: calls.append(code) or gram(code))
    out = tmp_path / "code.json"
    assert main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
                 "--output", str(out)]) == 0
    assert len(calls) == 1
    rc, vdoc = run_json(capsys, ["verify", str(out)])
    assert rc == 0 and vdoc["result"]["quantum"] == [12, 4, 5, 5]
    assert len(calls) == 2


@pytest.mark.parametrize("key,value", [("k", 4.9), ("p", 5.5), ("k", True), ("schema", 99),
                                       ("h", "1")])
def test_verify_refuses_coercible_fields_with_exit_4(tmp_path, capsys, key, value):
    out = tmp_path / "code.json"
    assert main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["result"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 4
    assert "malformed input" in capsys.readouterr().err


# a Mersenne prime far above the field cap: trial division up to its square
# root would not finish
HUGE_PRIME = 2**61 - 1


@pytest.mark.parametrize("argv", [["--p", str(HUGE_PRIME), "--h", "1"], ["--p", "2", "--h", "100000000"],
                                  ["--q", str(HUGE_PRIME)]])
def test_field_info_refuses_huge_fields_at_once(capsys, argv):
    assert main(["field-info", *argv]) == 2
    assert "exceeds the supported cap" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("p", HUGE_PRIME), ("h", 100000000)])
def test_verify_refuses_huge_fields_with_exit_4(tmp_path, capsys, key, value):
    out = tmp_path / "code.json"
    assert main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["result"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 4
    assert "exceeds the supported cap" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_are_refused(capsys, threads):
    assert main(["sweep", "--q", "3", "--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--threads must be at least 1" in captured.err


@pytest.mark.parametrize("key,value", [("quantum", 5), ("quantum", [12, 4, 5]), ("quantum", [12, 4, 5, "5"]),
                                       ("quantum", [12, 4, 5, True]), ("quantum", "12,4,5,5"),
                                       ("self_orthogonal", "false"), ("self_orthogonal", None),
                                       ("self_orthogonal", 1)])
def test_verify_refuses_ill_typed_claims_with_exit_4(tmp_path, capsys, key, value):
    out = tmp_path / "code.json"
    assert main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["result"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed input" in captured.err


def test_verify_compares_a_null_quantum_claim_with_nothing(tmp_path, capsys):
    out = tmp_path / "code.json"
    assert main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["result"]["quantum"] = None
    doc["result"]["self_orthogonal"] = False
    bad = tmp_path / "claims.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    rc, vdoc = run_json(capsys, ["verify", str(bad)])
    assert rc == 0
    assert vdoc["result"]["matches_file"] == {"self_orthogonal": False}


@pytest.mark.parametrize("claim", [[12, 4, 5, 5], [99, 1, 2, 5]])
def test_verify_refutes_a_quantum_claim_on_a_code_that_is_not_self_orthogonal(tmp_path, capsys, claim):
    """With no self_orthogonal key, the quantum claim is what says the code is self-orthogonal."""
    def edit(record):
        record["thetas"][0] = record["thetas"][0] % 24 + 1
        del record["self_orthogonal"]
        record["quantum"] = claim

    bad = _edited_example1_record(tmp_path, edit)
    capsys.readouterr()
    rc, vdoc = run_json(capsys, ["verify", str(bad)])
    assert rc == 0
    assert vdoc["result"]["self_orthogonal"] is False and vdoc["result"]["quantum"] is None
    assert vdoc["result"]["matches_file"] == {"quantum": False}


def _edited_example1_record(tmp_path, edit):
    out = tmp_path / "code.json"
    assert main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    edit(doc["result"])
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    return bad


def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def _written(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: _written(tmp, "[" * 100_000 + "]" * 100_000),
        lambda tmp: _written(tmp, '{"p": ' + "9" * 5000 + "}"),
        lambda tmp: _edited_example1_record(tmp, lambda r: r.update(thetas=_nested(1, 40))),
        lambda tmp: _edited_example1_record(tmp, lambda r: r.update(puncture_vector=_nested(1, 40))),
    ],
    ids=["arrays-past-the-recursion-limit", "integer-of-5000-digits", "thetas-40-deep", "puncture-vector-40-deep"],
)
def test_verify_refuses_what_json_or_numpy_cannot_read_with_exit_4(tmp_path, capsys, make):
    """json.load raises RecursionError and a plain ValueError on the first
    two, and numpy's flat iterator a RuntimeError past 32 dimensions on the
    last two: each is a malformed file, not a crash."""
    bad = make(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed input" in captured.err


def _set_params(**changes):
    return lambda record: record["params"].update(changes)


@pytest.mark.parametrize("edit", [
    lambda r: r.update(params={"n": "x", "d": 999}, mds="bogus"),
    _set_params(n=True),
    lambda r: r["params"].pop("verified_d"),
    _set_params(d=10),
    _set_params(n=13),
    _set_params(k=3),
    _set_params(verified_d=1),
    lambda r: r.update(params=None),
    lambda r: r.update(params=[12, 4, 9, True]),
    lambda r: r.update(mds="bogus"),
    lambda r: r.update(mds=None),
    lambda r: r.update(mds="asserted_by_construction"),
    _set_params(verified_d=False),
    lambda r: (r.update(mds="enumeration"), r["params"].update(verified_d=False)),
], ids=["issue-record", "bool-n", "no-verified_d", "wrong-d", "wrong-n", "wrong-k", "int-verified_d",
        "null-params", "list-params", "bogus-mds", "null-mds", "asserted-but-verified_d",
        "minors-but-not-verified_d", "enumeration-but-not-verified_d"])
def test_verify_refuses_ill_typed_or_inconsistent_params_and_mds(tmp_path, capsys, edit):
    bad = _edited_example1_record(tmp_path, edit)
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed input" in captured.err


@pytest.mark.parametrize("mds", ["minors", "enumeration", "asserted_by_construction"])
def test_verify_accepts_every_mds_tier_claim(tmp_path, capsys, mds):
    """The tier claim is checked for form and against its own verified_d only:
    other caps can give another tier."""

    def claim(record):
        record.update(mds=mds)
        record["params"]["verified_d"] = mds in ("minors", "enumeration")

    bad = _edited_example1_record(tmp_path, claim)
    capsys.readouterr()
    rc, vdoc = run_json(capsys, ["verify", str(bad)])
    assert rc == 0 and vdoc["result"]["mds"] == "minors"


def test_verify_accepts_a_bare_record_without_params_or_mds(tmp_path, capsys):
    def bare(record):
        keep = {key: record[key] for key in ("p", "h", "k", "support", "thetas")}
        record.clear()
        record.update(keep)

    bare_file = _edited_example1_record(tmp_path, bare)
    capsys.readouterr()
    rc, vdoc = run_json(capsys, ["verify", str(bare_file)])
    assert rc == 0
    r = vdoc["result"]
    assert r["self_orthogonal"] is True and r["quantum"] == [12, 4, 5, 5]
    assert r["params"] == {"n": 12, "k": 4, "d": 9, "verified_d": True}
    assert r["matches_file"] == {}


@pytest.mark.parametrize("bad", [1.5, True])
def test_verify_refuses_a_non_integer_support_coordinate_in_the_code_check(tmp_path, capsys, bad):
    """The record path leaves the coordinate rule to GrsCode and its wording."""
    record = _edited_example1_record(tmp_path, lambda r: r.update(support=[bad, *r["support"][1:]]))
    capsys.readouterr()
    assert main(["verify", str(record)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"malformed input: a support coordinate must be an integer, got {bad!r}" in captured.err


def test_negative_g_samples_are_refused(capsys):
    assert main(["puncture", "--q", "4", "--k", "2", "--g-samples", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--g-samples must be at least 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "{record}", "--mds-cap", "-1", "--enum-cap", "-1"],
    ["verify", "{record}", "--enum-cap", "-1"],
    ["puncture", "--q", "4", "--k", "2", "--distribution", "--distribution-cap", "-1"],
    ["puncture", "--q", "4", "--k", "2", "--check-min-weight", "--min-weight-cap", "-5"],
    ["puncture", "--q", "4", "--k", "2", "--method", "direct", "--direct-cap-q", "-3"],
    ["sweep", "--q", "3", "--min-weight-cap", "-1"],
])
def test_negative_caps_are_refused(tmp_path, capsys, argv):
    """A negative cap would switch its check off (or refuse every run with exit 3)."""
    record = tmp_path / "code.json"
    assert main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
                 "--output", str(record)]) == 0
    capsys.readouterr()
    argv = [str(record) if a == "{record}" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    flag, value = next((a, b) for a, b in zip(argv, argv[1:]) if b.startswith("-") and b[1:].isdigit())
    assert captured.out == "" and f"refused: {flag} must be at least 0, got {value}" in captured.err


def test_caps_of_zero_stay_legal(tmp_path, capsys):
    record = tmp_path / "code.json"
    assert main(["construct", "example1", "--q", "5", "--k", "4", "--t", "3", "--f", "1",
                 "--output", str(record)]) == 0
    capsys.readouterr()
    rc, doc = run_json(capsys, ["verify", str(record), "--mds-cap", "0", "--enum-cap", "0"])
    assert rc == 0 and doc["result"]["mds"] == "asserted_by_construction"
    assert main(["puncture", "--q", "4", "--k", "2", "--distribution", "--distribution-cap", "0"]) == 3
    assert "above the cap 0" in capsys.readouterr().err


# sha256 of the sweep output, timestamp blanked, as produced by the version that
# row-reduced the u-space basis for every cell (q = 32: for the admitted cells)
SWEEP_DIGESTS = {
    (7, "csv"): "b013bfedfeb2071fc8bb36521d569b4d9d0a3f818c73fa0afe156370b35bf3a1",
    (7, "json"): "d97b0a3127fc2c4fdb1a122ef8ad53ce9d0370a079c1bc431f8d69dee7deb663",
    (8, "csv"): "d6c6620f7d02a7ae24327838556df1328b6cc49d2b2e2012e7935eb2d43096b5",
    (8, "json"): "0c39e0fdc5f8b25b1ae8299c152f32907378e3a7074699c2753866f721fd22ff",
    (9, "csv"): "86c9b3a009987788977319f1ff0096631d6c3662991a7b66e22b4ec611084479",
    (9, "json"): "eb9a3eb31a7c663a7a4e8c852257e5333cf1809dc4ecb1ecd0e398827110c544",
    (11, "csv"): "95838f5661bab3370315baac8cfe6e26990538d6558fa467aa7d573cd21d1acf",
    (11, "json"): "3e94b9f1d73a22ba19601ce8a2efc8417b0471ab139732cbd512f04e609413b3",
    (13, "csv"): "df5358e53aa16f468e44990cf80f39f4362b8be43f644e326ddc97708363062e",
    (13, "json"): "c85ef720dc74ac14fe518e968eb7f27b087c4d6c8d9ae4c2a5a3f6f0cb932185",
    (16, "csv"): "bd254f3bc6c75eb6bab7c4b9e53d677ffe1c06a9dafa8d17618d6e0e273f3c9a",
    (16, "json"): "cca94dc3200923c705c72b515994e1d5bfccea134d508f1d1d05a625177dde06",
    (32, "csv"): "a7cbaec153e54a6b5014e258a1bdf2316f16c5b56e183c49d3e934f7a033a6b5",
    (32, "json"): "7b05f2e579897639f1e0bc3c10abf149c52e6900ac6970d53ac7c274843d3165",
}


@pytest.mark.parametrize("q", sorted({q for q, _ in SWEEP_DIGESTS}))
def test_sweep_output_is_pinned(capsys, monkeypatch, q):
    """Both formats at q; the second reuses the first's cells, computed once."""
    cells = {}
    compute = puncture.min_weight_pc

    def once(ctx, k, **kwargs):
        if k not in cells:
            cells[k] = compute(ctx, k, **kwargs)
        return cells[k]

    monkeypatch.setattr(puncture, "min_weight_pc", once)
    for fmt in ("csv", "json"):
        assert main(["sweep", "--q", str(q), "--format", fmt]) == 0
        text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', capsys.readouterr().out)
        assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGESTS[(q, fmt)], fmt


def test_sweep_row_reduces_only_the_admitted_cells(capsys, basis_builds):
    """At q = 11 only k = 1 (level 1 of 121 rows) and k = q (one row) are scanned,
    each through the route with fewer pivots: the kernel of H's one row at k = 1,
    the u-space at k = 11 (121 > dim = 1)."""
    assert main(["sweep", "--q", "11"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    modes = [row.split(",")[8] for row in rows[1:]]
    assert basis_builds == [("puncture_direct", 1), ("u_space_basis", 11)]
    assert [k for k, mode in enumerate(modes, 1) if mode == "exhaustive"] == [1, 11]


@pytest.mark.parametrize("q,k,rc", [
    (5, 2, 3),  # the distribution (5^22 words) then exceeds its cap
    (4, 3, 0),
])
def test_puncture_direct_builds_one_basis_for_every_consumer(capsys, basis_builds, q, k, rc):
    """The printed basis, the minimum weight and the distribution share the
    kernel that --method direct builds; no u-space basis is built besides."""
    argv = ["puncture", "--q", str(q), "--k", str(k), "--method", "direct", "--check-min-weight",
            "--distribution"]
    assert main(argv) == rc
    assert basis_builds == [("puncture_direct", k)]
    if rc == 0:
        doc = json.loads(capsys.readouterr().out)["result"]
        assert doc["min_weight"]["mode"] == "exhaustive" and doc["agrees"]
        assert sum(doc["weight_distribution"].values()) == q ** (q * q + 1 - k * k)


def test_main_builds_the_parser_once(capsys, monkeypatch):
    """Later calls reuse the first call's parser; a usage error still exits 2."""
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    try:
        assert main(["field-info", "--q", "4"]) == 0
        assert main(["field-info", "--q", "8"]) == 0
        assert built.count("hermgrs") == 1
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        assert built.count("hermgrs") == 1
    finally:
        cli.build_parser.cache_clear()  # no later test reuses the counted parser


@pytest.mark.parametrize("argv,rc,builds", [
    # the printed basis, the minimum weight and the distribution share one
    # RREF; at (5,3) the distribution (5^17 words) then exceeds its cap
    (["--q", "5", "--k", "3", "--method", "u-space", "--check-min-weight", "--distribution"], 3, 1),
    (["--q", "4", "--k", "3", "--method", "all", "--check-min-weight", "--distribution"], 0, 1),
    # a refused cell (7^14 words) builds no u-space basis
    (["--q", "7", "--k", "6", "--method", "direct", "--check-min-weight"], 0, 0),
])
def test_puncture_builds_the_u_space_basis_at_most_once(capsys, monkeypatch, argv, rc, builds):
    calls = []
    build = puncture.u_space_basis

    def counted(ctx, k):
        calls.append(k)
        return build(ctx, k)

    monkeypatch.setattr(puncture, "u_space_basis", counted)
    assert main(["puncture", *argv]) == rc
    assert len(calls) == builds
    if rc == 0:
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["min_weight"]["mode"] == ("exhaustive" if builds else "constructive")


# sha256 of each construct record, timestamp blanked, as produced by the version
# that evaluated h once per zero count and once per identity check
CONSTRUCT_DIGESTS = {
    "example1 --q 5 --k 4 --t 3 --f 1": "93d62649aab5675252e09d15fbfe15e4703738ba1e4c2696218b27240a3eaa32",
    "example1 --q 7 --k 3 --t 2 --f 9,1": "a1b68567ac7f7a938f5365f8394b260c63c7f15bc71d4d2fd28e8f184d150a4a",
    "example2 --q 7 --k 2 --t 2 --r 9,17": "cb19bc9982b3cd72453619cd6b57ed35d5580ba6ca3b8a2ef08698fea8e72212",
    "example2 --q 7 --k 3 --t 4 --r 9": "ec3318f897edccc291c444858a27f364ae4e72fb1a6d0ec19ee2beb6527bf2a1",
    "example3 --q 5 --k 2 --t 4 --r 9,17": "2a0c15f4d43e595a1872db104c60976bd72d2c6c6aaa15c806a0424eff57ad78",
    "even-min --q 8 --k 5": "e8871d134560e5cd9fd0ea4a18a7f440bbfab3b2e10fdae9edadbd781694b439",
    "even-min --q 16 --k 8": "a9473a3ec86db3bd4b99470490df51e2b14ef1a3c4d32e91e392368b199607e4",
    "odd-min --q 9 --k 6": "733ab2ad09c8e22d41f1d82ab54ef8bd0810b72618237575c9b4f806565d3201",
    "odd-min --q 7 --k 5": "22572e621d6d073ec7395e61432fa04b19b3ff3bb32f7977719e50f3f1aa4601",
    "qsq-plus-one --q 8": "af3f93bd160ebd556f99486bf1be1d64026b757cf81a5c0482bbc4f81730a869",
    "qsq-plus-one --q 8 --e 15": "c0e688d3278f22add326a4fcbd93af445027caf9c223e4de522c890cb5671c38",
    "custom --q 4 --k 2 --g 0,1 --c 0": "9994ef97526decfb59a641aa867b52fe8d68dab2702941d8d34b2b9302d0987d",
    "custom --q 9 --k 3 --g 5,0,7,1 --c 0": "d098ccc926b25b3087fe4e97e192a9a31991f11bec9f25976251bdf09e7eedb9",
    "custom --q 4 --k 2 --g 0 --c 1": "5f4f61e47ed6aaf7dac1198c1a338325ac8855c9194793c3c3eb28e8462fd515",
    "custom --q 9 --k 3 --g 5,0,7,1 --c 11": "62490a0d1449d54b56a6aa44080e29dcc21f94cc03d1e19c86d48ab066049ede",
}


@pytest.mark.parametrize("command", sorted(CONSTRUCT_DIGESTS))
def test_construct_output_is_pinned(tmp_path, capsys, command):
    out = tmp_path / "code.json"
    assert main(["construct", *command.split(), "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out.read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCT_DIGESTS[command]


# sha256 of the records at sizes where the Gram, the g-forms and h take the
# transform or stay on the H route and eval_on, as written before the transform
CONSTRUCT_DIGESTS_AT_SIZE = {
    "qsq-plus-one --q 32": "424094e6a48b0d39cc936cdee731d57c87d781d2890eb3bcdb9124c0b229c860",
    "odd-min --q 27 --k 14": "bda1c7950529ebe20a0e85c6a850581651be1b5dc39e8888ae4af05489408d5a",
    "odd-min --q 49 --k 25": "a5cb0ceb2d61ca0e3e4c34e660a4c72544bf30217557e4599e8dd6d07c13c20e",
    "even-min --q 64 --k 33": "5952632acdfdbea935946292e9d7003fd5d40f8a91b08b3ee0a09f8ef4f70433",
}


@pytest.mark.parametrize("command", sorted(CONSTRUCT_DIGESTS_AT_SIZE))
def test_construct_output_at_size_is_pinned(tmp_path, capsys, command):
    out = tmp_path / "code.json"
    assert main(["construct", *command.split(), "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out.read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCT_DIGESTS_AT_SIZE[command]


def test_custom_above_the_degree_bound_is_refused_without_a_record(tmp_path, capsys):
    # deg g = 8 > (q-k)q-1 = 7
    out = tmp_path / "code.json"
    argv = ["construct", "custom", "--q", "4", "--k", "2", "--g", "1,1,1,1,1,1,1,1,1", "--c", "0"]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "family",
    [
        "example1 --q 5 --k 4 --t 3 --f 1,1",  # deg g = t + deg(f)(q+1) = 9 > (q-k)q-1 = 4
        "example2 --q 7 --k 6 --t 4 --r 9",  # t + |R|q = 11 > 6
        "example3 --q 5 --k 3 --t 4 --r 5,21",  # t + |R|(q-1) = 12 > 9
    ],
)
def test_family_above_the_degree_bound_is_refused_without_a_record(tmp_path, capsys, family):
    out = tmp_path / "code.json"
    assert main(["construct", *family.split(), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds the bound (q-k)q-1" in captured.err
    assert not out.exists()


# JSON values of every kind json writes: ints past 64 bits, NaN and infinities,
# text with quotes, escapes, control characters and non-ASCII, and tuples
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats() | st.text(st.characters() | st.sampled_from('"\\\x00\x1f\n\u2028é😀')),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(max_size=4), children),
    max_leaves=40,
)


@given(json_values)
def test_dumps_writes_what_json_writes_with_indent_2(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [{}], {"b": [[]]}],
    {1: "int", 1.5: "float", None: [[]]}, {True: [1], False: {}}, {-0.0: "negative zero", 2.0: [()]},
    {"x": {2**70: [float("nan"), float("inf"), -float("inf"), -0.0]}},
    "é\"\n\x00", 2**70, float("nan"), None, False,
], ids=repr)
def test_dumps_matches_json_on_empty_containers_and_converted_keys(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    np.int64(1), {1}, [np.int64(1)], [1, [2, {1}]], {"a": np.int64(1)}, {"a": [{"b": {1}}]},
    {(1, 2): 3}, {"a": [{(1, 2): 3}]},
], ids=repr)
def test_dumps_raises_type_error_where_json_does(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._dumps(value)


def _reindented(text: str) -> str:
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("command", [
    "puncture --q 16 --k 4 --method u-space --g-samples 2",
    "puncture --q 4 --k 3 --method all --check-min-weight --distribution",
    "sweep --q 8 --format json",
    "field-info --q 8",
])
def test_json_output_is_the_indent_2_form(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert out == _reindented(out)


def test_construct_record_and_its_verify_are_the_indent_2_form(tmp_path, capsys):
    record = tmp_path / "code.json"
    assert main(["construct", "qsq-plus-one", "--q", "32", "--output", str(record)]) == 0
    text = record.read_text(encoding="utf-8")
    assert text == _reindented(text)
    capsys.readouterr()
    assert main(["verify", str(record), "--include-generator"]) == 0
    out = capsys.readouterr().out
    assert out == _reindented(out)
