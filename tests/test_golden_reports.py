"""Golden corpus: byte-identical stdout and artifacts for every subcommand.

A fixed, small set of CLI invocations runs in-process through run_command
inside a temporary directory, with relative file names so the reports do
not depend on where the test runs. Each stdout and each written CSV/OBJ
file is compared against a pinned sha256. A refactor that changes a single
output byte fails here; a change that is meant to alter output must say so
and re-pin.
"""

import hashlib
import math

from proxitop.cli import run_command

SPACE6 = "x1,x2\n0,0\n1,0\n0,1\n1,1\n2,0\n0,2\n"
CHAIN6 = "x1,x2\n0,0\n.5,0\n1,0\n1.5,0\n0,.5\n1,1\n"
PAIR = "x1,x2\n0.0,0.0\n3.0,4.0\n"
SQUARE = "x1,x2\n0,0\n1,0\n0,1\n1,1\n"


def _trace50() -> str:
    rows = ["t,x,z"]
    for i in range(50):
        t = i / 250.0
        rows.append(f"{t!r},{t + 0.001!r},{round(math.sin(i / 4.0), 6)!r}")
    return "\n".join(rows) + "\n"


INPUTS = {
    "space6.csv": SPACE6,
    "chain6.csv": CHAIN6,
    "pair.csv": PAIR,
    "square.csv": SQUARE,
    "trace50.csv": _trace50(),
}

# (case name, argv, files the command writes)
CORPUS = [
    *[
        (
            f"axioms-{family}",
            ["axioms", "check", "--family", family, "--space", "space6.csv",
             "--trials", "200", "--seed", "3", "--features", '{"name":"norm"}'],
            [],
        )
        for family in ("Lodato-descriptive", "strong", "descriptive-strong")
    ],
    (
        "axioms-coords-0.6",
        ["axioms", "check", "--family", "Lodato-descriptive", "--space", "chain6.csv",
         "--trials", "200", "--seed", "0", "--features",
         '{"name":"coords","tolerance":0.6}'],
        [],
    ),
    *[
        (
            f"but-{mode}",
            ["but", "search", "--mode", mode, "--grid", "n=1", "density=16",
             "--descriptor", "even-coords", "--tol", "1e-9"],
            [],
        )
        for mode in ("points", "strings", "sheets")
    ],
    (
        "surface-torus",
        ["surface", "torus", "--c", "2", "--r", "0.5", "--grid", "8x8", "--out", "torus.obj"],
        ["torus.obj"],
    ),
    ("eeg-lift", ["eeg", "lift", "--in", "trace50.csv", "--out", "lift.csv"], ["lift.csv"]),
    (
        "eeg-torus",
        ["eeg", "torus", "--in", "trace50.csv", "--c", "2", "--r", "0.5", "--out", "band.obj"],
        ["band.obj"],
    ),
    ("antipodes-witness", ["antipodes", "witness", "--points", "pair.csv"], []),
    ("antipodes-petty", ["antipodes", "petty", "--points", "square.csv"], []),
    *[(f"fixedpoint-{m}", ["fixedpoint", "--map", m], []) for m in ("half", "cos", "rot90")],
]

# sha256 of each stdout ("<case>") and written file ("<case>:<file>")
PINS = {
    "axioms-Lodato-descriptive": "a08989c0122fd0177b57ea9339ac032414c1e18d49e6417c3d65717d36eb1485",
    "axioms-strong": "32fbeacefabd7a46f4dd23d789d2024d3dae8ac72cc8ed9311ecf732a16dbfe5",
    "axioms-descriptive-strong": "8ca3f43c71f35dfaa1107ff4b764e8a49024515433a8d77b1b4ba2e7646a2371",
    "axioms-coords-0.6": "b452e0e9c5663bea6ad8f43382743fd59c19607b9996e06251565922b9df8cb1",
    "but-points": "305253858a77f3fb766b82498e18b1a0763c9515b958f68153c350e73e528588",
    "but-strings": "6f9ca6852c38cbe8d263a6dcd8f8ef464e53629659253d8909a35c237c1f1b97",
    "but-sheets": "99a1de7e4fa99c5c4ed810059747b7b69cf2348c7d6956ca1fae87fce29ff9a8",
    "surface-torus": "a71d5cf3100bd604cad441e8b08e2a3165b4e674ec00081f53166c56e2e92d2f",
    "surface-torus:torus.obj": "1919900132a682a5de1a3602de09f452062bff7bdad74cfc5e416d0e43bee640",
    "eeg-lift": "855fe225399c36d9502db0b4b8836a737f390ca930d7090aaa1b35886b5ca703",
    "eeg-lift:lift.csv": "26a2ae173dbabb662e8661b7b812e45d8b2f8128376bc8fc89ddcf306c3f8704",
    "eeg-torus": "57852c41ef100e612c1013ceff1f1e09dfa792e7bfc90e74ced263039b664dba",
    "eeg-torus:band.obj": "22f68b070c56eed601c0f1b8bfa77d027d1aeaf6d20649412364928ee5d46db0",
    "antipodes-witness": "c8491e94c479378b67116102814b4570286323922ea1b8d2d14b78fc98d589c3",
    "antipodes-petty": "e824cf3041de77baea2bc50c883d448160af5c4849dd84bcb28712a32604839d",
    "fixedpoint-half": "ddba54670c80707186bc3eb6850d37abcb2b10ba2c50b432e728d1c5ca58bf54",
    "fixedpoint-cos": "83841134e8d2fccc9633b13991b0b412a594d0eeea1128b656b28cb890dba6fa",
    "fixedpoint-rot90": "523a303218fc0583e0bac76ef4bb7ad70f448eca1d5560ce61abda292f8d5ad3",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_corpus(workdir, capsys) -> dict:
    """Run the corpus in workdir; returns {key: sha256} like PINS."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    digests = {}
    for case, argv, outputs in CORPUS:
        rc = run_command(argv)
        out = capsys.readouterr().out
        assert rc == 0, f"{case} exited {rc}"
        digests[case] = _sha(out.encode())
        for fname in outputs:
            digests[f"{case}:{fname}"] = _sha((workdir / fname).read_bytes())
    return digests


def test_corpus_covers_every_subcommand():
    commands = {a[0] if a[0] == "fixedpoint" else f"{a[0]} {a[1]}" for _, a, _ in CORPUS}
    assert len(commands) == 8


def test_golden_outputs_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = run_corpus(tmp_path, capsys)
    assert set(got) == set(PINS)
    changed = sorted(k for k in PINS if got[k] != PINS[k])
    assert not changed, f"output bytes changed for {changed}"
