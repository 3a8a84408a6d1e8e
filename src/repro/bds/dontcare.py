"""Satisfiability don't-care (SDC) minimization of local BDDs.

Section VI item 1 of the paper: "BDD-based logic minimization with
satisfiability don't cares, similar to full_simplify of SIS, should be
developed to improve the area performance of BDS" -- and Section V blames
the missing feature for the `dalu`/`vda` area losses.  This module
implements it on the partitioned network:

For a supernode n with fanin signals s_1..s_k realized by global functions
g_1..g_k over the primary inputs, the *care set* of n's input space is the
image  care(s) = exists_PI  prod_i (s_i xnor g_i(PI)).  Patterns outside
the image never occur, so n's local BDD may be freely minimized against
them (Coudert-Madre restrict, as everywhere else in BDS).

All computations are bounded: global functions and care sets that exceed
their node caps simply skip the node.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bdd.manager import BDD, ONE, ZERO
from repro.bdd.restrict import minimize_with_dc
from repro.bdd.traverse import node_count, support
from repro.network.eliminate import PartitionedNetwork


def minimize_with_sdc(part: PartitionedNetwork, global_cap: int = 3000,
                      care_cap: int = 2000) -> int:
    """Minimize every supernode's local BDD against its input-image care
    set.  Returns the number of nodes whose BDD changed."""
    mgr = part.mgr
    global_of: Dict[str, Optional[int]] = {}
    for name in part.inputs:
        global_of[name] = mgr.var_ref(part.sig_var[name])

    all_pi_vars = {part.sig_var[i] for i in part.inputs}
    changed = 0
    for name in sorted(part.refs):
        ref = part.refs[name]
        node_support = support(mgr, ref)
        fanin_sigs = [mgr.var_name(v) for v in sorted(node_support)
                      if mgr.var_name(v) not in part.inputs]
        if not fanin_sigs:
            continue  # node reads only PIs: every pattern reachable
        terms = []
        feasible = True
        for sig in sorted(fanin_sigs):
            g = _build_global(part, sig, global_of, global_cap)
            if g is None:
                feasible = False
                break
            terms.append(mgr.xnor_(mgr.var_ref(part.sig_var[sig]), g))
        if not feasible:
            continue
        care = ONE
        for term in terms[:-1]:
            care = mgr.and_(care, term)
            if node_count(mgr, care) > 4 * care_cap:
                feasible = False
                break
        if not feasible:
            continue
        # PIs the node reads directly stay in the care set: their
        # correlation with the fanin signals is exactly what SDCs capture.
        # The last conjunction is fused with the quantification
        # (relational product) to avoid the biggest intermediate.
        from repro.bdd.ops import and_exists

        quantify = [v for v in sorted(all_pi_vars) if v not in node_support]
        care = and_exists(mgr, care, terms[-1], quantify)
        if care in (ONE, ZERO) or node_count(mgr, care) > care_cap:
            continue
        onset = mgr.and_(ref, care)
        minimized = minimize_with_dc(mgr, onset, care ^ 1)
        if minimized != ref and node_count(mgr, minimized) <= node_count(mgr, ref):
            part.set_ref(name, minimized)
            # Downstream global functions must see the minimized node...
            # but on the care set the function is unchanged, so cached
            # globals remain valid images.
            changed += 1
    return changed


def _build_global(part: PartitionedNetwork, name: str,
                  global_of: Dict[str, Optional[int]],
                  global_cap: int) -> Optional[int]:
    """Global function of signal ``name`` over the primary inputs, or
    None past ``global_cap`` nodes.

    A plain function, not a closure: a recursive closure reaches itself
    through its cell, and that cycle would keep the manager alive until
    the cyclic GC runs.
    """
    if name in global_of:
        return global_of[name]
    mgr = part.mgr
    ref = part.refs[name]
    subst: Dict[int, int] = {}
    for v in sorted(support(mgr, ref)):
        sig = mgr.var_name(v)
        if sig in part.inputs:
            continue
        g = _build_global(part, sig, global_of, global_cap)
        if g is None:
            global_of[name] = None
            return None
        subst[v] = g
    g = mgr.vector_compose(ref, subst)
    if node_count(mgr, g) > global_cap:
        g = None
    global_of[name] = g
    return g
