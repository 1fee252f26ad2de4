"""Byte-exact output of the closed-form CLI commands against committed golden files.

The files under ``tests/data/cli_golden`` were written by an earlier release; a
refactor that keeps the formulas and their floating-point order keeps every
byte.  Regenerate them only for an intended output change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import sys
from pathlib import Path

from oscoul.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

MODELS = {
    "osc": ["--model", "osc", "--d", "3", "--omega", "1.3"],
    "coulomb": ["--model", "coulomb", "--D", "2.5", "--Q", "1"],
    "nlo-neg": ["--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1"],
    "nlo-pos": ["--model", "nlo", "--d", "2", "--lambda", "0.2", "--beta", "1"],
    "clike-neg": ["--model", "clike", "--D", "3", "--lambda", "-0.1", "--Q", "1"],
    "pdm-osc": ["--model", "pdm-osc", "--d", "3", "--lambda", "0.1", "--beta", "1"],
    "pdm-coulomb": ["--model", "pdm-coulomb", "--D", "3", "--lambda", "-0.1", "--Q", "1"],
}

DUALITY = {
    "nlo-neg": ["--d", "2", "--l", "0", "--lambda", "-0.1", "--beta", "1", "--n-r", "1"],
    "nlo-pos": ["--d", "2", "--l", "1", "--lambda", "0.2", "--beta", "1", "--n-r", "1"],
    "clike-neg": ["--d", "4", "--l", "0", "--lambda", "-0.1", "--beta", "1"],
}


def _cases():
    for case, flags in MODELS.items():
        osc_side = flags[1] in ("osc", "nlo", "pdm-osc")
        ang = ["--l", "1"] if osc_side else ["--L", "0"]
        for fmt in ("csv", "json"):
            yield f"spectrum-{case}.{fmt}", ["spectrum", *flags, "--format", fmt]
            # oscillator-side bound-states writes JSON only
            if flags[1] not in ("osc", "coulomb") and not (osc_side and fmt == "csv"):
                yield f"bound-states-{case}.{fmt}", ["bound-states", *flags, "--format", fmt]
            yield f"wavefunction-{case}.{fmt}", [
                "wavefunction", *flags, *ang, "--n-r", "1", "--points", "50", "--format", fmt
            ]
    for case, flags in DUALITY.items():
        yield f"duality-{case}.json", ["duality", *flags]


CASES = dict(_cases())


def test_closed_form_commands_match_golden_output(tmp_path, capsys):
    mismatched = []
    for name, argv in CASES.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0, name
        if out.read_bytes() != (GOLDEN / name).read_bytes():
            mismatched.append(name)
    capsys.readouterr()
    assert not mismatched, mismatched


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        if main([*argv, "--out", str(GOLDEN / name)]) != 0:
            sys.exit(f"{name}: command failed")
