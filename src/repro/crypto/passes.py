"""Identity shim for ``benchmarks/e2e/traced.py``, which still imports
``lower_plan`` and ``optimize_plan`` from here.

A compiled :class:`~repro.crypto.plan.InferencePlan` is already the artifact
the executor runs, so both names return their argument.  No module under
``src/`` imports this one; the next benchmark change drops the import and
deletes this file.
"""


def optimize_plan(plan):
    return plan


def lower_plan(plan):
    return plan
