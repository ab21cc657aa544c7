"""The identity catalogue: verify, certify, audit, refit.

Forty-five tau/divisor-sum identities and fifteen congruences are stored
symbolically.  Each identity gets two checks: exact residuals over a range
of n, and a certification that checks the same integer vectors vanish
through a q-order set by the identity's weight, decomposing only a failing
difference over the graded generators to name what is wrong.  Entries
whose stated constants are wrong are not silently corrected: the audit
flags them and reports the refitted constant next to the stated one.
"""

from tauforms import audit_all, builtin_registry, certify, evaluate, make_context, verify_range

registry = builtin_registry()
print(f"catalogue: {len(registry.identities)} identities, "
      f"{len(registry.congruences)} congruences")

ctx = make_context(200)

record = registry.by_id["thm2.1.i"]
print()
print(f"{record.id}: {record.anchor}")
print(f"  residuals at n = 1..6: {[evaluate(record, n, ctx) for n in range(1, 7)]}")
print(f"  range check to 200:    {verify_range(record, 200, ctx).status}")
report = certify(record)
print(f"  certification:         {report.status} (checked through q^{report.limit})")

print()
print("running the full audit at n <= 200 ...")
audit = audit_all(200)
flagged = [e for e in audit.entries if e.status == "audit-flagged"]
print(f"  verified: {sum(1 for e in audit.entries if e.status == 'verified')}")
print(f"  flagged:  {[e.id for e in flagged]}")
for entry in flagged:
    for c in entry.fit.discrepancies:
        print(f"    {entry.id}: {c.description}: stated {c.stated}, refit {c.fitted}")
print(f"  congruences: all "
      f"{'pass' if all(e.status == 'verified' for e in audit.congruences) else 'FAIL'}")

print()
print("normalisation and constant findings:")
for finding in audit.findings:
    print(f"  {finding.id}:")
    print(f"    stated   {finding.claimed}")
    print(f"    computed {finding.computed}")

print()
print(f"audit {'ok' if audit.ok else 'FAILED'} "
      "(only pre-declared flagged entries may fail)")
