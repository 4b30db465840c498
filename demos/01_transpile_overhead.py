"""Lowering templates to hardware bases and counting what it costs.

Entangler-heavy layers pay a steep toll on a CX-native device: a single c6
layer needs an order of magnitude more depth than a c2 layer once every
controlled rotation is rewritten into native gates.
"""

import numpy as np

from qdistill import bind, build_template, lower, overhead_table, unitary_of

rows = overhead_table(["c1", "c2", "c6", "c9", "c12", "c15"],
                      ["IBM", "RIGETTI"], n_qubits=4)
columns = ("template", "basis", "depth", "total", "g1q", "g2q")
print("single layer, 4 qubits")
print(" ".join(f"{c:>8}" for c in columns))
for r in rows:
    print(" ".join(f"{r[c]:>8}" for c in columns))

by_key = {(r["template"], r["basis"]): r for r in rows}
c6, c2 = by_key[("c6", "IBM")], by_key[("c2", "IBM")]
print(f"c6 vs c2 on IBM: depth x{c6['depth'] / c2['depth']:.1f}, "
      f"gates x{c6['total'] / c2['total']:.1f}")

# the rewrite is exact: lowering never changes the circuit's unitary
tpl = build_template("c6", 4, 1)
theta = np.linspace(-2.0, 2.0, tpl.n_params)
bound = bind(tpl, theta)
lowered = lower(bound, "IBM", merge_1q=True)
u, v = unitary_of(bound), unitary_of(lowered)
print(f"overlap after lowering: {abs(np.sum(u.conj() * v)) / 16:.12f}")
