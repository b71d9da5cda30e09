#!/usr/bin/env python3
# The JSON document format and the command-line surface.

import subprocess
import sys
import tempfile
from pathlib import Path

from supermalcev import adjoint_representation, canonical_r
from supermalcev import fixtures
from supermalcev.serialize import AlgebraDocument, parse, serialize

# Serialize an algebra together with its adjoint representation.
sl2 = fixtures.sl2()
doc = AlgebraDocument(sl2, representation=adjoint_representation(sl2))
text = serialize(doc)
print("serialized document:")
print(text)

# Parsing is exact and canonical: serialize(parse(text)) == text.
print("round trip is the identity:", serialize(parse(text)) == text)

# Documents carry optional blocks; here a MYBE candidate on the double.
c = canonical_r(fixtures.pre_malcev_1_1())
candidate_doc = serialize(AlgebraDocument(c.algebra, tensor2=c.r))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "candidate.json"
    path.write_text(candidate_doc)
    for argv in (
        ["check", str(path), "--identity", "malcev"],
        ["mybe-check", str(path)],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "supermalcev.cli", *argv],
            capture_output=True, text=True,
        )
        print(f"\n$ supermalcev {' '.join(argv[:1] + argv[2:])}  (exit {result.returncode})")
        print(result.stdout, end="")
