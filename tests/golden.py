"""Byte-identity gate for every command and for the exact linear algebra.

Pins the exact ``--json`` output (and exit code) of every subcommand on the
fixtures, and the representative cocycles of the seeded random models used
by ``test_cohomology.py``.  The ``cohomology``, ``ring-verify`` and
``gysin-check`` digests were recorded before the elimination kernel was
rewritten, except the ``rational_pencil`` ones (a model with non-integer
coefficients), recorded before class coordinates were read in kernel
coordinates, and the ``six_gen`` one, recorded before kernel vectors were
built at the representatives' columns only; the grid-72, 200-iterate and
1000003rd-iterate ones before the Bott index moved to integer arithmetic,
the others before the command dispatch was rewritten; any change to the CLI, ``gca.linalg``, the cochain
complex or ``bott`` must reproduce them byte for byte.  To print the
current digests, and exit with status 1 when any differs from the
recorded one:

    PYTHONPATH=src python tests/golden.py

The module needs no pytest, so any installed interpreter can run it;
``test_golden.py`` checks the running one and ``test_golden_interpreters.py``
every other CPython it finds.
"""

import hashlib
import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

from loopspace.cli import main
from loopspace.gca import cohomology

from helpers import random_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DGA = ("cp2.dga", "quotient_s2.dga", "sphere5.dga")
SPACEFORMS = ("lens_s3_r8.spaceform", "rp2.spaceform")
FIXTURE_SUFFIXES = (".dga", ".spaceform", ".bott")

COMMANDS = {
    **{f"cohomology {f}": ("cohomology", "--max-degree", "16", "--json", f) for f in DGA},
    # a large sparse model: its matrices reach hundreds of rows
    "cohomology six_gen.dga": ("cohomology", "--max-degree", "20", "--json", "six_gen.dga"),
    "ring-verify quotient_s2 a=2": ("ring-verify", "--deg-z", "2", "--nilpotency", "2",
                                    "--max-degree", "14", "--json", "quotient_s2.dga"),
    "ring-verify quotient_s2 a=3": ("ring-verify", "--deg-z", "2", "--nilpotency", "3",
                                    "--max-degree", "10", "--json", "quotient_s2.dga"),
    "ring-verify cp2": ("ring-verify", "--deg-z", "5", "--nilpotency", "3",
                        "--max-degree", "12", "--json", "cp2.dga"),
    # non-integer coefficients: dx = (u2/2 + v2)^2, so w = u2 + 2*v2
    "cohomology rational_pencil.dga": ("cohomology", "--max-degree", "16", "--json",
                                       "rational_pencil.dga"),
    "ring-verify rational_pencil": ("ring-verify", "--deg-z", "2", "--nilpotency", "2",
                                    "--max-degree", "14", "--json", "rational_pencil.dga"),
    "gysin-check rational_pencil.dga cp2.dga": ("gysin-check", "--max-degree", "12", "--json",
                                                "rational_pencil.dga", "cp2.dga"),
    **{f"gysin-check {b} {t}": ("gysin-check", "--max-degree", "9", "--json", b, t)
       for b in DGA[:2] for t in DGA},
    **{f"homotopy {w} {f}": ("homotopy", "--which", w, "--max-degree", "12", "--json", f)
       for w in ("lambda", "quotient") for f in SPACEFORMS},
    **{f"spaceform-model {f}": ("spaceform-model", "--json", f) for f in SPACEFORMS},
    "bott index m=7": ("bott", "index", "--iterate", "7", "--json", "quarter_turn.bott"),
    "bott index m=1000003": ("bott", "index", "--iterate", "1000003", "--json", "quarter_turn.bott"),
    "certify rp2 N=4": ("certify", "rp2", "--grid", "4", "--values", "1", "--cutoff", "9", "--json"),
    "certify rp2 N=72": ("certify", "rp2", "--grid", "72", "--values", "2", "--cutoff", "145",
                         "--json"),
    "certify theorem5 k=1": ("certify", "theorem5", "--k", "1", "--iterates", "10", "--json",
                             "lens_s3_r8.spaceform", "quarter_turn.bott"),
    "certify theorem5 k=1 L=200": ("certify", "theorem5", "--k", "1", "--iterates", "200", "--json",
                                   "lens_s3_r8.spaceform", "quarter_turn.bott"),
}

EXPECTED = {
    "bott index m=1000003": "2a84d1750820d986471af8e2268222d1400d0dd0248114b9c131aa2b3fc1cc7b",
    "bott index m=7": "d0ecacd58db5d6ff1f6e80a640c8dc645206c1a7b3cc3475509a09e6781da934",
    "certify rp2 N=4": "c52891213da7ac8197b1370c163ac78773e2cb8fbf41725049956d735f42ee03",
    "certify rp2 N=72": "d59d2e03c0926a279f457ed32c8a76b31643174a21a5b889a176a1bdc8e30b0b",
    "certify theorem5 k=1": "e20d83207915f0874a1c8c4f32901aecdd862793852ef8e718d76a35949dd196",
    "certify theorem5 k=1 L=200": "5b7ab7a1687187ab9ea8c96946ec7388232acbcf44e1b44081aafb91a091a190",
    "cohomology cp2.dga": "abcdf23fc25ef18f4aafd88c41c2291aa708824164af8089bb66ba82467dfe9a",
    "cohomology quotient_s2.dga": "15b0d0941539340e148634b19728564cd04524d986defccca085e50bdf92528e",
    "cohomology rational_pencil.dga": "adb23ec01e146e3e3ae44fcdbac3226bbe440e524a216235787d4968e67af19c",
    "cohomology six_gen.dga": "9a783aaa586ad85dce260c371f12897a84a6524460edee000b2ab775d4068745",
    "cohomology sphere5.dga": "67979a8af7b5e8815314aba6fb9ca6d0930c426746bce4c522c569fd10f7fa9c",
    "gysin-check cp2.dga cp2.dga": "d027f9870d31a57fc9e80c83ffe3147644b7fcd9efcd5201af0b70516492ca65",
    "gysin-check cp2.dga quotient_s2.dga": "771d6234d3812db4ebe8cfea231bf09fa8343ae37dd417f9207ef0c107f84276",
    "gysin-check cp2.dga sphere5.dga": "6e49782b11614d241d6dba571b7a037413d37c53c43bc8aefdc09d39885beb16",
    "gysin-check quotient_s2.dga cp2.dga": "2394847f814f38ca347591b4a07d9a655439657134f0fac80bb6b1f1229eddd6",
    "gysin-check quotient_s2.dga quotient_s2.dga": "bae92e84815c95b8c4a25f0688ad9781b7c9080f2bfa24d6914fd008796cc4c4",
    "gysin-check quotient_s2.dga sphere5.dga": "763774652b41eca3ff63d84320a953660f7605f7cf1715f41b27a4903fa909b4",
    "gysin-check rational_pencil.dga cp2.dga": "00ff8a6a4c2bd2cbab06213572ce278511817666e0117e280cd887a672205f7b",
    "homotopy lambda lens_s3_r8.spaceform": "9fb1d311457c856606de664a697895f89cc16005a89fe5a7f001fc8573d19e1f",
    "homotopy lambda rp2.spaceform": "9626e3150ba03121e8589aaf0f6f1d1ac607cda4644a6638539fa42f9923e651",
    "homotopy quotient lens_s3_r8.spaceform": "82a52e0e81cae7e45f8aa7c31704142d24e6423fa71dd29a3b498e0a23b6a881",
    "homotopy quotient rp2.spaceform": "e6a2d440b3d3fd9a33def14ec14772573d08846d9af52ac07933e2f166b8fb5e",
    "ring-verify cp2": "9a0a68f5c7e158d358fc86ad5e92d96c3d10e26187a938e9823bacc8f2185ff3",
    "ring-verify quotient_s2 a=2": "f8810414c9867ef578eb76ad6b748175089bdd1f321b1a6b1688b87ad51bd56e",
    "ring-verify quotient_s2 a=3": "8db371a25b811435a9d9066c448284ecbb44c94d32b2200315f6f979e20c8b19",
    "ring-verify rational_pencil": "20c09f7a7dbb017d9c356b9e1ac221958a583710479e128377bdc2c71986d3e2",
    "spaceform-model lens_s3_r8.spaceform": "680f47cbf1652301563ab80a608762db330c175b4c756ed2a02f3bbf57518d96",
    "spaceform-model rp2.spaceform": "e89bd2feeaa61c2229624b3d59a8839dc70b59a3b249b89bf0bce49471ea7889",
}

REPRESENTATIVES_SHA256 = "ca2e2cea3a6491efe5bdb2512d5d9dba923c6242cd489371c138a612fbeb8bfa"


def command_digest(argv) -> str:
    args = [str(FIXTURES / a) if a.endswith(FIXTURE_SUFFIXES) else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def representatives_digest() -> str:
    rng = random.Random(31415)
    h = hashlib.sha256()
    for _ in range(40):
        model = random_model(rng)
        table = cohomology(model, 8, with_representatives=True)
        for reps in table.representatives:
            h.update(repr([model.format_element(r) for r in reps]).encode())
        h.update(b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    digests = {label: command_digest(COMMANDS[label]) for label in sorted(COMMANDS)}
    for label, digest in digests.items():
        print(f"    {label!r}: {digest!r},")
    representatives = representatives_digest()
    print(f"REPRESENTATIVES_SHA256 = {representatives!r}")
    differ = [label for label, digest in digests.items() if digest != EXPECTED[label]]
    if representatives != REPRESENTATIVES_SHA256:
        differ.append("representatives")
    if differ:
        sys.exit("digests differ from the recorded ones: " + ", ".join(differ))
