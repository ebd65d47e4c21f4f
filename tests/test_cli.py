"""End to end tests of the command line interface.

Everything goes through main(argv) so the tests cover argument parsing,
exit codes, and both output formats without spawning subprocesses; only the
memory test runs main in a child process, whose peak RSS is its own.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orbitsieve
from orbitsieve.cli import main
from orbitsieve.orbit import orbit_mod
from orbitsieve.projective import _residue_pair, parse_modulus, parse_point
from orbitsieve.ratmap import parse_map


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_decide_empty_certificate_json(capsys):
    code, doc, _ = _run_json(
        capsys, "decide", "--map", "z^2-1", "--point", "3", "--targets", "0"
    )
    assert code == 0
    assert doc["kind"] == "empty"
    assert [m["p"] for m in doc["moduli"]] == ["5"]
    assert doc["moduli"][0]["hit_set"]["residues"] == []
    assert doc["problem"]["map"]["resultant"] == "1"


def test_decide_witness_and_verify_round_trip(tmp_path, capsys):
    cert_file = tmp_path / "witness.json"
    code, out, _ = _run(
        capsys,
        "decide",
        "--map", "z^2-1",
        "--point", "3",
        "--targets", "63",
        "--output", str(cert_file),
    )
    assert code == 0
    assert "witness index: 2" in out

    code, out, _ = _run(capsys, "verify", str(cert_file))
    assert code == 0
    assert "verifies: yes" in out

    doc = json.loads(cert_file.read_text())
    doc["witness_index"] = "5"
    bad_file = tmp_path / "tampered.json"
    bad_file.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", str(bad_file))
    assert code == 1
    assert "verifies: no" in out


def test_verify_reads_stdin(tmp_path, capsys, monkeypatch):
    cert_file = tmp_path / "cert.json"
    code, _, _ = _run(
        capsys,
        "decide",
        "--map", "z^2-1",
        "--point", "0",
        "--targets", "5",
        "--output", str(cert_file),
    )
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(cert_file.read_text()))
    code, doc, _ = _run_json(capsys, "verify", "-")
    assert code == 0
    assert doc["verdict"] is True
    assert doc["kind"] == "empty"


def test_verify_rejects_a_malformed_certificate_without_a_traceback(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"

    def certificate(point, targets):
        code, _, _ = _run(
            capsys,
            "decide",
            "--map", "z^2-1",
            "--point", point,
            "--targets", targets,
            "--output", str(cert_file),
        )
        assert code == 0
        return json.loads(cert_file.read_text())

    no_budget = certificate("3", "0")
    del no_budget["problem"]["budgets"]["day_steps"]
    short_pair = certificate("3", "0")
    short_pair["moduli"][0]["orbit"]["sequence"][0] = ["1"]
    # a stored pair mod p^k that is not canonical: (p^k, 1), (0, 0), and
    # (1, c2) with p not dividing c2; the family here is the modulus 5
    non_canonical = []
    for pair in (["5", "1"], ["0", "0"], ["1", "2"]):
        doc = certificate("3", "0")
        assert doc["moduli"][0]["p"] == "5" and doc["moduli"][0]["k"] == "1"
        doc["moduli"][0]["orbit"]["sequence"][0] = pair
        non_canonical.append(doc)
    # [0 : 1] stored as [0, 2], not in lowest terms
    unreduced = certificate("0", "5")
    points = unreduced["finite_orbit"]["points"]
    points[points.index(["0", "1"])] = ["0", "2"]
    bad_file = tmp_path / "bad.json"
    unknown_kind = certificate("3", "0")
    unknown_kind["kind"] = "maybe"
    for doc in (no_budget, [], short_pair, *non_canonical, unreduced, unknown_kind):
        bad_file.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "verify", str(bad_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed certificate: ")
        assert err.count("\n") == 1


def test_verify_refuses_a_modulus_past_the_bit_limit_before_building_it(
    tmp_path, capsys, time_limit
):
    # a certificate whose one k is edited to 10^11 names a 2.3 * 10^11-bit
    # power of 5, refused while it is decoded
    cert_file = tmp_path / "cert.json"
    code, _, _ = _run(
        capsys,
        "decide",
        "--map", "z^2-1",
        "--point", "3",
        "--targets", "0",
        "--output", str(cert_file),
    )
    assert code == 0
    doc = json.loads(cert_file.read_text())
    assert (doc["moduli"][0]["p"], doc["moduli"][0]["k"]) == ("5", "1")
    doc["moduli"][0]["k"] = "100000000000"
    cert_file.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    with time_limit():
        code, out, err = _run(capsys, "verify", str(cert_file))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: malformed certificate: modulus 5^100000000000 of "
        "300000000000 bits exceeds the limit 1048576\n"
    )


def test_decide_exhausted_exit_code(capsys):
    code, doc, _ = _run_json(
        capsys,
        "decide",
        "--map", "z+1",
        "--point", "1",
        "--targets", "0,inf",
        "--night-stages", "4",
    )
    assert code == 2
    assert doc["kind"] == "exhausted"
    assert doc["engine"]["warnings"]


def test_decide_json_output_is_byte_identical(capsys):
    argv = ("decide", "--map", "z^2-1", "--point", "3", "--targets", "0")
    _, out1, _ = _run(capsys, *argv, "--format", "json")
    _, out2, _ = _run(capsys, *argv, "--format", "json")
    assert out1 == out2


# SHA-256 of the `--format json` output. A refactor must leave these bytes
# alone; only a deliberate schema change may update a digest.
PINNED_JSON_SHA256 = {
    "decide --map z^2-1 --point 3 --targets 0":
        "36ea4243336eb8d19402e804762f45da64e16edb8b9391f1a1337f8fce6e7c3b",
    "decide --map z^2-1 --point 3 --targets 63":
        "717c0db72c355d7060e0b9ce3f1b748b16b592cb9e47007f953188380aaeb90c",
    "decide --map z^2-1 --point 0 --targets 5":
        "260337b6b86a23de08924923dc131615c7f32edb0b232cae821e84cdfbbcd1f7",
    "orbit --map z^2 --point 2 --height-bits 64 --max-steps 100":
        "daaa4829500b8155fc1a41c1569d808662ac93d368ebbb40dc0bfda4da38f556",
    "zsigmondy --map z^2 --beta 2 --gamma 1 --mmax 5":
        "482add6e956b760d7175fb42cf4fd5fe1061b3218dbe1f65955a64e561aab7a5",
    # settled by 11 alone, the fifth modulus examined
    "decide --map z^2-1 --point 4 --targets 0 --day-steps 4 --night-stages 3 --height-bits 256":
        "0505715b8630d25dc748a8e9feb0866a277089cd22b52081b629b5f559fb6164",
    # a two-modulus family, {3, 5}
    "decide --map z^2-1 --point 5 --targets 0,3 --day-steps 4 --night-stages 3 --height-bits 256":
        "2d65b127d51668c44fdd0a23313509c6b1c790555e3a391f28211327ec559a83",
    "orbit --map z^2-1 --point 3 --mod 7":
        "505252aa001626dac0802ac0ccbafa6f4345106fcc8062b0ab8230fb9d3f601f",
    # the real report's floats
    "newton --poly z^3-2 --alpha 3 --primes 5,7":
        "e24355cb64a5d7950bb4a33b027bca287ff3d3ef803346b174c9b9553827d8e3",
    "periodic --map z^2-1 --period 2":
        "6b36caed383d06cfbb03995dca966ef2a6e3293ebebf44fd7e786016341a3953",
    "orbit --map (z^2+1)/(2z) --point 3 --max-steps 8":
        "df447bf9bd700f765387dc6946c968af4c2e96e80dc6926b5f550c52f1680820",
    # a rational map: a bad-prime skip, an excluded-prime skip, two moduli
    "decide --map (z^2+1)/(2z) --point 2 --targets -1 --exclude-primes 5 --day-steps 5 --night-stages 2":
        "320614ccf7c7831a69682231427517e522908fe30d82ad680d6479d8a782ee12",
    "zsigmondy --map z^2-1 --beta 3 --gamma 0 --mmax 5":
        "4fdd33d3f044c33085333a567facd516d8a6728f34b2f06ac9598608636cf6eb",
    # exact steps whose image coordinates share a factor of the resultant:
    # g = 3 at steps 1-5, then the height budget ends the walk
    "orbit --map (2z^3+z-3)/(z^3-4z^2+6) --point 3 --height-bits 2048 --max-steps 40":
        "144bd4fc3f3f72695e6e1ab3b2c3bf7b19df5af9803e244b61a6cd0b98009208",
    # a witness at index 2 of that walk
    "decide --map (2z^3+z-3)/(z^3-4z^2+6) --point 3 --targets 3895/2374":
        "84bf3eb55adf5377b27ec9355f0068717f3a43b54755c3dd97600649d67f49a9",
    # a closed orbit under a map with a negative resultant, g = 16
    "decide --map (z+5)/(3z-1) --point 2 --targets 0":
        "e0851501710892948779fcc7518610c74a3974fa68a1969863841933dac994e6",
    # gamma escapes, so it is not preperiodic: the warning is kept
    "zsigmondy --map z^2 --beta 2 --gamma 2 --mmax 3":
        "60fe2aed565e737ce68ced9955d35dc8c884530eebf77076902d9ecf7d5781f2",
    # a rational map whose beta and gamma scans both end at escape
    "zsigmondy --map (z^2+1)/(2z) --beta 3 --gamma 2 --mmax 4":
        "4796dd05b3e9efedd0f93c548d88e29cf8fa62605effdc5c9ed8488d02a25f6b",
    # the m = 6 term's primes all divide earlier terms but one 101-bit
    # prime, so only that prime is left to factor
    "zsigmondy --map z^2 --beta 9 --gamma 1 --mmax 6":
        "7ca825edfc260f3a2128f411c6e5ad7f02f4377fc38b8031012e3485db23aede",
    # the start is a target: a witness at index 0, day_status "running"
    "decide --map z^2-1 --point 0 --targets 0,7":
        "959b6430c5d1ab414365f00abcfff7b2dd4aa0382d2709832ed765694ab13fe5",
    # the degree-one bench input, exhausted: 45 moduli examined, 37 of them
    # skipped at the cycle lcm cap
    "decide --map z+1 --point 1 --targets 0,inf --night-stages 9":
        "a1cf42422d017de2462fbe786ccd965d27ed6edab743660256096c930aec76e9",
}


@pytest.mark.parametrize("command", sorted(PINNED_JSON_SHA256))
def test_json_output_matches_pinned_digest(capsys, command):
    code, out, _ = _run(capsys, *command.split(), "--format", "json")
    # decide exits 2 on an exhausted certificate, every other run 0
    assert code == (2 if json.loads(out).get("kind") == "exhausted" else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JSON_SHA256[command]


def test_degenerate_map_is_a_usage_error(capsys):
    code, out, err = _run(
        capsys, "orbit", "--map", "(z^2-1)/(z-1)", "--point", "0"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# Map text takes ASCII digits only. str.isdigit also accepts superscripts,
# which int() then rejects with its own message, and other scripts' digits,
# which int() reads: "z^٢-1" used to parse as z^2-1.
@pytest.mark.parametrize(
    "text, position", [("z²+1", 1), ("z^٢-1", 2), ("٣z+1", 0)]
)
def test_map_text_with_a_non_ascii_digit_is_a_usage_error(capsys, text, position):
    code, out, err = _run(capsys, "orbit", "--map", text, "--point", "1")
    assert code == 1
    assert out == ""
    assert err == f"error: unexpected character {text[position]!r} at position {position}\n"


# Point, modulus and list text take ASCII digits without underscores, as map
# text does: int() reads "1_0" as 10 and other scripts' digits as ASCII ones.
@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--map", "z+1", "--point", "1_0"],
        ["decide", "--map", "z^2", "--point", "3", "--targets", "٠"],
        ["decide", "--map", "z^2", "--point", "3", "--targets", "0", "--exclude-primes", "٥"],
        ["orbit", "--map", "z+1", "--point", "1", "--mod", "7^١"],
        ["newton", "--poly", "z^2-2", "--alpha", "١/٢"],
    ],
)
def test_number_text_outside_ascii_digits_is_a_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (
        "error: numbers are written in ASCII digits without underscores: "
        f"{argv[-1]!r}\n"
    )


def test_integer_options_take_ascii_digits_only(capsys):
    with pytest.raises(SystemExit) as info:
        main(["orbit", "--map", "z+1", "--point", "1", "--max-steps", "١"])
    assert info.value.code == 2
    assert "--max-steps" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["orbit", "--map", "z+1", "--point", "1", "--max-steps", "0"])
    assert info.value.code == 2
    assert "argument --max-steps: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, shown", [(" -3/4 ", "-3/4"), ("[1:-2]", "-1/2"), ("+5", "5")]
)
def test_point_text_with_spaces_signs_and_brackets_parses(capsys, text, shown):
    code, out, err = _run(capsys, "orbit", "--map", "z+1", "--point", text, "--max-steps", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"  n=0: {shown}"


@pytest.mark.parametrize("text", ["1/2/3", "x", "1/", "- 3", "[inf:1]", "[1:2:3]", "[1]"])
def test_malformed_point_text_is_a_usage_error_that_names_it(capsys, text):
    # int() alone would report "invalid literal for int() with base 10"
    code, out, err = _run(capsys, "orbit", "--map", "z+1", f"--point={text}")
    assert (code, out, err) == (1, "", f"error: bad point text: {text!r}\n")


@pytest.mark.parametrize("text", ["2^", "2^3^4"])
def test_malformed_modulus_text_is_a_usage_error_that_names_it(capsys, text):
    code, out, err = _run(capsys, "orbit", "--map", "z^2+1", "--point", "1", "--mod", text)
    assert (code, out, err) == (1, "", f"error: bad modulus text: {text!r}\n")


def test_negative_point_text_parses_in_the_equals_form(capsys):
    # argparse passes a separate value that starts with '-' as a value only
    # when it is shaped like -3, so -1/2 needs --point=-1/2
    code, out, err = _run(capsys, "orbit", "--map", "z^2", "--point=-1/2", "--max-steps", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["  n=0: -1/2", "  n=1: 1/4", "  n=2: 1/16"]
    code, doc, err = _run_json(capsys, "decide", "--map", "z^2-1", "--point", "3", "--targets=-1,0")
    assert (code, err) == (0, "")
    assert doc["problem"]["targets"] == [["-1", "1"], ["0", "1"]]
    with pytest.raises(SystemExit) as info:
        main(["orbit", "--map", "z^2", "--point", "-1/2"])
    assert info.value.code == 2
    assert "argument --point: expected one argument" in capsys.readouterr().err


def test_map_text_past_the_degree_limit_is_a_usage_error(capsys):
    # without the limit, parsing z^9999+1 alone would run for hours
    code, out, err = _run(capsys, "orbit", "--map", "z^9999+1", "--point", "1")
    assert code == 1
    assert out == ""
    assert err == "error: degree 9999 exceeds the limit 256\n"


def test_a_literal_past_the_digit_limit_is_a_usage_error(capsys, time_limit):
    # 315,653 digits hold any 2^20-bit integer, the coefficient limit
    t0 = time.perf_counter()
    with time_limit():
        code, out, err = _run(capsys, "orbit", "--map", "z+" + "9" * 400_000, "--point", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert out == ""
    assert err == "error: integer literal of 400000 digits exceeds the limit 315653\n"


def test_integers_within_the_bounds_print_in_full(tmp_path, capsys):
    # CPython converts at most 4,300 digits between int and str unless told
    # otherwise; main raises that limit for the command, and only for it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = _run(capsys, "orbit", "--map", "z^2", "--point", "3", "--max-steps", "20")
    assert code == 0
    lines = out.splitlines()
    # 3^(2^20) would pass the 2^20-bit height budget
    assert lines[0] == "orbit of 3: truncated after 19 steps"
    assert len(lines[-1].split()[-1]) == int(2 ** 19 * math.log10(3)) + 1
    cert_file = tmp_path / "big.json"
    code, out, _ = _run(
        capsys, "decide", "--map", "9^5000*z+z^2", "--point", "1", "--targets", "0",
        "--output", str(cert_file),
    )
    assert code == 0
    code, out, _ = _run(capsys, "verify", str(cert_file))
    assert (code, out) == (0, "certificate kind: empty\nverifies: yes\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_orbit_rational_output(capsys):
    code, doc, _ = _run_json(
        capsys, "orbit", "--map", "z^2-1", "--point", "3", "--max-steps", "3"
    )
    assert code == 0
    assert doc["status"] == "truncated"
    assert doc["points"] == [["3", "1"], ["8", "1"], ["63", "1"], ["3968", "1"]]

    code, out, _ = _run(capsys, "orbit", "--map", "z^2-1", "--point", "0")
    assert code == 0
    assert "preperiodic" in out and "cycle=2" in out


def test_orbit_mod_output(capsys):
    code, doc, _ = _run_json(
        capsys, "orbit", "--map", "z^2-1", "--point", "3", "--mod", "7"
    )
    assert code == 0
    assert doc["tail"] == "2"
    assert doc["cycle"] == "2"
    assert doc["sequence"] == [["3", "1"], ["1", "1"], ["0", "1"], ["6", "1"]]


@pytest.mark.parametrize(
    "map_text, point, mod",
    [
        ("z^2-1", "3", "7"),
        ("z+1", "1", "5^2"),
        ("(z^2+1)/(2z)", "3", "11"),
        # 0 -> inf -> 0: a pair (1, 0) among the rows
        ("1/z", "0", "3"),
        # a one-point orbit
        ("z^2", "inf", "2^3"),
    ],
)
def test_orbit_mod_json_is_the_bytes_of_json_dumps(capsys, map_text, point, mod):
    # the rows of "sequence" are written one at a time, in the text that
    # json.dumps writes for the whole document
    argv = ["orbit", "--map", map_text, "--point", point, "--mod", mod, "--format", "json"]
    code, out, _ = _run(capsys, *argv)
    m = parse_modulus(mod)
    orb = orbit_mod(parse_map(map_text), parse_point(point), m)
    pairs = [_residue_pair(c, m.modulus) for c in orb.sequence]
    doc = {
        "schema_version": "1",
        "command": "orbit",
        "modulus": {"p": str(m.p), "k": str(m.k)},
        "tail": str(orb.tail),
        "cycle": str(orb.cycle),
        "sequence": [[str(a), str(b)] for a, b in pairs],
    }
    assert (code, out) == (0, json.dumps(doc, sort_keys=True, indent=2) + "\n")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is counted in KiB on Linux")
def test_orbit_mod_json_holds_neither_the_rows_nor_their_text():
    # z+1 mod 2^17-1 walks 131,071 points. Building the document whole and
    # encoding it with the indenting encoder peaked at 83 MiB of child RSS
    # (Linux, Python 3.11), writing its rows one at a time at 26 MiB. Linux
    # starts a child's ru_maxrss at the peak of the process that started
    # it, so a small Python process starts the command and reports the
    # peak of its one child (RUSAGE_CHILDREN, in KiB on Linux).
    package_parent = os.path.dirname(orbitsieve.__path__[0])
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    starter = (
        "import resource, subprocess, sys\n"
        "code = subprocess.call([sys.executable, '-m', 'orbitsieve.cli', *sys.argv[1:]])\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    argv = ["orbit", "--map", "z+1", "--point", "1", "--mod", "131071", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", starter, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["cycle"], len(doc["sequence"])) == ("131071", 131071)
    assert doc["sequence"][-1] == ["0", "1"]
    assert int(proc.stderr) / 1024 < 50


def test_a_modulus_past_the_bit_limit_is_refused_before_it_is_built(capsys, time_limit):
    # 2^(10^11) would take 12.5 GB to build while --mod is parsed
    t0 = time.perf_counter()
    with time_limit():
        code, out, err = _run(
            capsys, "orbit", "--map", "z+1", "--point", "1", "--mod", "2^100000000000"
        )
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: modulus 2^100000000000 of 200000000000 bits exceeds the limit 1048576\n"
    )


def test_orbit_mod_stops_past_the_step_limit(capsys):
    # z+1 mod 1000003^2 would walk through 10^12 points
    code, out, err = _run(capsys, "orbit", "--map", "z+1", "--point", "1", "--mod", "1000003^2")
    assert code == 1
    assert out == ""
    assert err == "error: the orbit mod 1000003^2 passes 1048576 steps without repeating\n"
    # a short orbit at the same modulus is walked as before
    code, out, _ = _run(capsys, "orbit", "--map", "z^2-1", "--point", "0", "--mod", "1000003^2")
    assert code == 0
    assert out.splitlines()[0] == "orbit of 0 mod 1000003^2: tail=0 cycle=2"


def test_badprimes_output(capsys):
    code, doc, _ = _run_json(capsys, "badprimes", "--map", "z^2+1/3")
    assert code == 0
    assert doc["resultant"] == "81"
    assert doc["bad_primes"] == ["3"]
    assert doc["complete"] is True


def test_badprimes_warns_of_an_unfactored_cofactor(capsys):
    # the resultant 100160063^2 is left whole by one rho step past trial
    # division to 1
    argv = ("badprimes", "--map", "z^2/(z-100160063)", "--factor-steps", "1", "--trial-bound", "1")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1:] == [
        "bad primes: (none)",
        "warning: unfactored composite cofactor with 54 bits; the list above may be "
        "incomplete",
    ]
    code, doc, _ = _run_json(capsys, *argv)
    assert code == 0
    assert (doc["complete"], doc["bad_primes"], doc["cofactor"]) == (
        False, [], str(100160063 ** 2)
    )


def test_periodic_output(capsys):
    code, doc, _ = _run_json(
        capsys, "periodic", "--map", "z^2-1", "--period", "2"
    )
    assert code == 0
    assert doc["points"] == [["-1", "1"], ["0", "1"]]


def test_periodic_on_a_map_with_an_identity_iterate_is_an_input_error(capsys):
    identity = (
        "error: the map is the identity: every point is fixed, so no period "
        "has a dynatomic form\n"
    )
    for period in ("1", "2"):
        code, out, err = _run(capsys, "periodic", "--map", "z", "--period", period)
        assert (code, out, err) == (1, "", identity)
    # 1/z is an involution: phi^2 = id
    code, out, err = _run(capsys, "periodic", "--map", "1/z", "--period", "4")
    assert (code, out) == (1, "")
    assert err == (
        "error: phi^2 is the identity: every point has a period dividing 2, "
        "so period 4 has no dynatomic form\n"
    )


def test_poltype_output(capsys):
    code, out, _ = _run(capsys, "poltype", "--map", "1/z^2", "--point", "inf")
    assert code == 0
    assert "k=2" in out
    code, doc, _ = _run_json(capsys, "poltype", "--map", "z^2", "--point", "1")
    assert doc["k"] is None


def test_zsigmondy_output(capsys):
    code, doc, _ = _run_json(
        capsys,
        "zsigmondy",
        "--map", "z^2",
        "--beta", "2",
        "--gamma", "1",
        "--mmax", "5",
    )
    assert code == 0
    assert [row["primitive"] for row in doc["rows"]] == [
        ["3"], ["5"], ["17"], ["257"], ["65537"]
    ]
    assert doc["warnings"] == []


def test_zsigmondy_rejects_a_composite_excluded_entry(capsys):
    code, out, err = _run(
        capsys,
        "zsigmondy",
        "--map", "z^2",
        "--beta", "2",
        "--gamma", "1",
        "--mmax", "5",
        "--exclude-primes", "4",
    )
    assert code == 1
    assert out == ""
    assert err == "error: excluded entry 4 is not prime\n"


def test_newton_output(capsys):
    code, doc, _ = _run_json(
        capsys, "newton", "--poly", "z^3-2", "--alpha", "3", "--primes", "5,7"
    )
    assert code == 0
    verdicts = {r["place"]: r["verdict"] for r in doc["reports"]}
    assert verdicts["real"] == "converges"
    assert verdicts["5"] == "converges"
    assert verdicts["7"] == "diverges"


def test_newton_start_beyond_double_range_leaves_the_real_place_undecided(capsys):
    # 10^400 has no double; the real place says so, and the exact 5-adic
    # walk still reports. Each exact Newton step doubles the bits (the
    # default 10 steps take about 5 s), so 4 steps keep the test short
    argv = ["newton", "--poly", "z^2-2", "--alpha", str(10 ** 400), "--primes", "5"]
    argv += ["--p-iters", "4"]
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "real: undecided" in lines
    assert "p=5: diverges (valuations 0,-800,-800,-800,-800)" in lines
    code, doc, _ = _run_json(capsys, *argv)
    real, p5 = doc["reports"]
    assert real["verdict"] == "undecided"
    assert real["detail"]["note"] == "start or coefficients beyond double precision"
    assert p5["place"] == "5" and p5["detail"]["valuations"]


def test_newton_refuses_a_polynomial_that_is_not_squarefree(capsys):
    # newton_map would note the repeated factor, but the place report
    # refuses the polynomial before anything is printed
    code, out, err = _run(capsys, "newton", "--poly", "(z-1)^2*(z+1)", "--alpha", "3")
    assert (code, out) == (1, "")
    assert err == "error: polynomial must be squarefree\n"


def test_demo_degree_one_output(capsys):
    code, doc, _ = _run_json(capsys, "demo-degree-one", "--max-prime", "3")
    assert code == 0
    rows = {(r["p"], r["k"]): r["minimal_n"] for r in doc["rows"]}
    assert rows[("2", "3")] == "4"
    assert rows[("3", "2")] == "6"


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["decide", "--map", "z^2-1"])
    assert info.value.code == 2
    assert "--point" in capsys.readouterr().err


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", _README, re.S)


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    # every command of the README's shell examples, in order, so that
    # `verify cert.json` reads the certificate that `decide` wrote
    commands = [
        shlex.split(line)[1:]
        for block in _readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith("orbitsieve ")
    ]
    assert len(commands) == 11
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    assert (tmp_path / "cert.json").exists()
    capsys.readouterr()


def test_readme_library_snippet_prints_its_comments():
    (snippet,) = _readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    printed = out.getvalue().splitlines()
    assert printed == ["empty", "['5']", "True"]
    # each print's comment shows its output; a quoted string shows a str
    comments = re.findall(r"^print\(.*#\s*(.*)$", snippet, re.M)
    assert [c.strip('"') for c in comments] == printed
