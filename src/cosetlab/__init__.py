"""Desk-scale workbench for hidden-structure problems over small finite groups.

Plant instances with a known answer, carry them between problem families
through wreath-product constructions, solve them by brute force or through
decision oracles alone, and certify untrusted programs with nonadaptive
checkers.
"""

from .perms import (ExceedsCapError, Permutation, StabilizerChain,
                    build_stabilizer_chain, compose, format_cycles, parse_cycles,
                    random_element)
from .groups import (CyclicElement, DihedralElement, FiniteGroup, GroupElement,
                     ShapeMismatchError, TupleElement, WreathElement,
                     cyclic_group, dihedral_group, element_from_json, element_key,
                     element_pow, element_to_json, enumerate_group, group_from_json,
                     group_op, group_to_json, identity_like, invert, reduce_generators,
                     symmetric_group, wreath_embed, wreath_group, wreath_unembed)
from .instances import (GhshInstance, GroupAction, HiddenCosetInstance, HspInstance,
                        NoDisjointOrbitError, OracleFunction, OrbitCosetInstance,
                        PromiseViolationError, Side, instance_from_json,
                        instance_to_json, plant_coset, plant_ghsh,
                        plant_hidden_shift, plant_hsp, plant_orbit_coset,
                        verify_promise)
from .reductions import (GammaSetStabilizer, InvalidKGeneratorsError,
                         PairedOracle, StructuredHspInstance, SubgroupConstraint,
                         embed_wreath_instance, ghsh_to_hsp, hidden_coset_to_hsp,
                         orbit_coset_to_hsp, recover_coset_solution,
                         recover_ghsh_functions, recover_orbit_solution)
from .search_decision import (DecisionAnswer, DecisionOracle, DihedralDecisionOracle,
                              NotSmoothError, OracleInconsistentError,
                              QueryBatch, QueryRecord, ShiftDecisionOracle, crt_combine,
                              dihedral_search_via_decision, hsh_search_via_decision,
                              hsp_search_via_decision, smooth_factorize)
from .checking import (BruteForceDecisionOracle, BruteForceShiftOracle,
                       BruteSearchProgram, BuggyProgram, BugSpec, CheckerVerdict,
                       TrialRecord, brute_coset_solve, brute_decide, brute_ghsh_solve,
                       brute_hsp_solve, brute_orbit_solve, checker_hsp, checker_hspD,
                       wrap_buggy)

__version__ = "0.1.0"
