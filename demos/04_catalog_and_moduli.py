#!/usr/bin/env python3
"""Catalog generation, parameter counts, and deterministic serialization.

Every family generator emits canonicalized records; the union is a catalog
that serializes to JSON byte-identically on every run and parses back to
the identical record list.
"""

from selinks import ResourceBudgetError, ScanConfig, fermat_cy_moduli, scan_all
from selinks.cli import parse_catalog_json, render_catalog

cfg = ScanConfig(k_bound=24, m_range=(3, 6))
records = scan_all(cfg)
print(f"catalog: {len(records)} records across "
      f"{sorted({r.family_tag for r in records})}")

certified = [r for r in records if r.certificate.bp_sufficient]
print(f"certified Sasakian-Einstein candidates: {len(certified)}")
dims = sorted({r.link_dimension for r in certified})
print(f"link dimensions covered: {dims}")

# The number of effective parameters of the Fermat Calabi-Yau families
# more than doubles with each step in m.
print()
print("effective complex parameters mu(m) for the Fermat CY families:")
for m in range(3, 11):
    print(f"  m={m}: mu = {fermat_cy_moduli(m)}")

# Serialization round-trip: byte-identical output, lossless parse.
text = render_catalog(records, "json", cfg)
again = render_catalog(scan_all(cfg), "json", cfg)
assert text == again
meta, back = parse_catalog_json(text)
assert back == records
print()
print(f"json catalog: {len(text)} bytes, schema {meta['schema']}, "
      "round-trip exact")

# Factored torsion orders expand on demand, up to the interpreter's
# int-to-str digit limit; the largest in this catalog is past it.
fermat = next(r for r in records if str(r.torsion) == "21^204")
print(f"torsion order {fermat.torsion}: "
      f"{len(str(fermat.torsion.expand()))} decimal digits")
big = max(records, key=lambda r: r.torsion.exponent)
try:
    big.torsion.expand()
except ResourceBudgetError as exc:
    print(f"largest torsion order {big.torsion}: not expanded ({exc})")
