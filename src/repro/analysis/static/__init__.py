"""Static analysis of XOR schedules: symbolic proofs, optimality audits,
data-flow lints and the project AST lint.

The paper's entire contribution is an XOR-count claim -- Algorithms 1-4
hit the ``k-1`` XORs-per-parity-bit lower bound -- and the rest of this
repository validates schedules *dynamically* (execute and compare).
This package closes the loop statically: every compiled
:class:`~repro.engine.ops.Schedule` is a straight-line GF(2) program, so
it can be *proved* equal to its parity specification by abstract
interpretation over symbolic cell states, without touching a byte of
data.

* :mod:`repro.analysis.static.symbolic` -- the abstract interpreter.
  A cell's state is the :class:`frozenset` of initial-cell atoms whose
  GF(2) sum it currently holds; XOR is symmetric difference.
* :mod:`repro.analysis.static.spec` -- per-family parity-bit
  specifications (which data bits each parity bit must equal), derived
  from the codes' defining equations / generator matrices, *not* from
  their schedule builders.
* :mod:`repro.analysis.static.prover` -- proves encode and decode
  schedules functionally correct per ``(family, p, k, erasures)``.
* :mod:`repro.analysis.static.structural` -- the ordering/garbage
  read-write discipline checker (the former ``repro.engine.verify``,
  extended with scratch-column garbage tracking).
* :mod:`repro.analysis.static.lints` -- data-flow lints over the IR:
  dead writes, self-cancelling XOR pairs, copy-after-accumulate
  clobbers, aliasing hazards.
* :mod:`repro.analysis.static.audit` -- the XOR-optimality auditor and
  the machine-readable report behind ``repro analyze`` and the CI gate.
* :mod:`repro.analysis.static.astlint` -- the project-source AST lint
  enforcing the simulation-seam invariant (no wall clocks / ambient
  randomness outside approved seams).
"""

from repro.analysis.static.symbolic import (
    Atom,
    Expr,
    data_atom,
    garbage_atom,
    pristine_state,
    symbolic_execute,
)
from repro.analysis.static.structural import check_structure
from repro.analysis.static.spec import parity_spec, spec_xor_lower_bound
from repro.analysis.static.prover import (
    Proof,
    erasure_patterns,
    prove_decode,
    prove_encode,
    prove_code,
)
from repro.analysis.static.lints import Lint, lint_schedule
from repro.analysis.static.audit import (
    AnalysisReport,
    analyze_family,
    default_families,
    run_analysis,
)
from repro.analysis.static.astlint import AstLintFinding, lint_project

__all__ = [
    "Atom",
    "Expr",
    "data_atom",
    "garbage_atom",
    "pristine_state",
    "symbolic_execute",
    "check_structure",
    "parity_spec",
    "spec_xor_lower_bound",
    "Proof",
    "erasure_patterns",
    "prove_encode",
    "prove_decode",
    "prove_code",
    "Lint",
    "lint_schedule",
    "AnalysisReport",
    "analyze_family",
    "default_families",
    "run_analysis",
    "AstLintFinding",
    "lint_project",
]
