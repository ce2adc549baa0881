"""Eleven selection criteria disagree in instructive ways.

On the truth table from demo 01, purely-individual scoring (MIM) falls
for the duplicated feature x4, and most of the others (MD, CMIM, JMI, ...)
end with the XOR pair x2, x3.  That is partly luck of the column order:
after x1, MD finds x2, x3 and x4 tied at 0.311 bits, and takes x2 only
because ties go to the lowest column index.  Once x2 is in, x3 completes
the pair.
"""

import warnings

import miselect as ms
from miselect.criteria import KINDS
from miselect.structure import dmi

# on 8 rows the MMD complement estimate is support-starved; that warning
# is expected here and would only clutter the narrative output
warnings.filterwarnings("ignore", message="MMD complement")

_, ds = ms.example1()

print("forward selection with k=3, per criterion:")
for kind in KINDS:
    spec = ms.CriterionSpec(kind, beta=1.0) if kind == "mifs" \
        else ms.CriterionSpec(kind)
    trace = ms.forward_select(spec, ds, k=3)
    gap = dmi(ds, list(trace.selected))
    print(f"  {kind:7s} -> {list(trace.selected)}   DMI = {gap:.6f}")

print()
print("step-by-step scores for MD (x2, x3 and x4 tie at step 2; the lowest index wins):")
trace = ms.forward_select(ms.CriterionSpec("md"), ds, k=3)
for step in trace.steps:
    scores = {f: round(v, 6) for f, v in sorted(step.scores.items())}
    print(f"  chose {step.chosen:3s} ties={list(step.ties)} scores={scores}")

print()
print("a stopping threshold ends the search once nothing adds information:")
trace = ms.forward_select(ms.CriterionSpec("cmim"), ds, threshold=1e-6)
print(f"  CMIM selected {list(trace.selected)} (stop: {trace.stop_reason})")
