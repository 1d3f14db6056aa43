"""Whole-program analysis behind the FLOW / TNT / QUO / XPT rule families.

See :mod:`repro.lint.flow.model` for the program model (and
:class:`~repro.lint.flow.model.ModuleInfo`, the one record per parsed
file every rule reads), :mod:`repro.lint.flow.msgflow` for the
message-flow graph, :mod:`repro.lint.flow.taint` for the interprocedural
determinism taint, :mod:`repro.lint.flow.seams` for the approved transport
seam inventory, and :mod:`repro.lint.flow.rules` for the rules themselves.
"""
