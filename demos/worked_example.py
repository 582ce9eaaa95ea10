"""Walk through the bundled three-dimensional example end to end.

The representation factors through the projective modular group: the
diagonal generator has sixth-root-of-unity angles and the other generator
is an involution.  It is reducible but indecomposable, and every route
through its invariant-subspace structure pins the same splitting type.
Its three local spectra are certified once; each sequence splits them
between its sub and its quotient.

Run:  python3 demos/worked_example.py
"""

import numpy as np

from logroots import (analyze, chern_class, classify, local_spectra,
                      parse_input_document, preset)

rep = parse_input_document(preset("pslz-section5"))[0]

print("generator images:")
print(np.round(rep.m0, 4))
print(np.round(rep.m1, 4))

spectra = local_spectra(rep, exact=True)
data = chern_class(rep, spectra=spectra)
print("\ndegree of the extended bundle:")
for p in data.per_pole:
    print(f"  pole {p.pole:>3}: angle sum {p.exact_q_sum}")
print(f"  c1 = {data.c1}")

comp = analyze(rep, spectra=spectra)
print(f"\ncomposition structure: {comp.kind} "
      f"({len(comp.sequences)} short exact sequences)")
for seq in comp.sequences:
    sub, quot = (classify(part, spectra=part_spectra) for part, part_spectra
                 in ((seq.sub_rep, seq.sub_spectra),
                     (seq.quotient_rep, seq.quotient_spectra)))
    print(f"  sub dim {seq.sub_dim}: sub roots {sub.options[0]}, "
          f"quotient roots {quot.options[0]}")

res = classify(rep, spectra=spectra)
print(f"\nsplitting type: {res.options[0]}  [{res.status}]")
print("every sequence's candidate set intersects to the same answer,")
print("so the two-candidate ambiguity of each route disappears.")
