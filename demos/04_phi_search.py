"""
Exhaustive search over small triangle budgets
=============================================

The enumerator walks one canonical representative per isomorphism class
of connected families, so the per-budget maxima it reports are exact.
No disconnected family does better: gluing a disjoint union's parts at
one vertex connects it and keeps its lambda, so the budget-5 winner is
the windmill, five triangles sharing only one vertex.
"""

from trispec import enumerate_connected_families, lambda_of, phi_table

for t in (1, 2, 3, 4):
    classes = list(enumerate_connected_families(t))
    best = max(lambda_of(f) for f in classes)
    print(f"t={t}: {len(classes):3d} connected classes, best connected lambda {best:.6f}")
print()

table = phi_table(5)
print(table.to_csv())

print("running maximum (the achievable level per budget):")
for t, value in table.lambda_envelope().items():
    print(f"  up to {t} triangles: {value:.6f}")

entry = table.entries[5]
print()
print(f"budget-5 witness ({'exhaustive' if entry.exhaustive else 'best found'}):")
for tri in entry.witness:
    print("  ", tri)
