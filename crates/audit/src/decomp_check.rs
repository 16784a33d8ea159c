//! Replay of decomposition certificates ([`DecompTrace`]) against the
//! produced network, without calling the decomposition code.
//!
//! Per [`RewriteStep`] the checker discharges three obligations:
//!
//! 1. **Rule applicability** — the `before`/`after` pair is syntactically
//!    an instance of the claimed rule (associative regrouping over the
//!    same operand sequence, a one-level DeMorgan push or its involution,
//!    or an input-inverter realization on the right input signal);
//! 2. **Functional equivalence** — re-proved by [`crate::equiv`]'s packed
//!    truth tables / BDDs;
//! 3. **Hazard monotonicity** — `hazards(after) ⊆ hazards(before)`,
//!    re-proved by `recheck_monotone`.
//!
//! Per [`EquationCert`] it additionally re-derives, by an independent walk
//! of the network, the expression the emitted gate tree realizes and
//! requires it to be structurally identical to the certified result; and
//! it requires every gate of the network to be covered by some equation's
//! walk (no uncertified logic).

use std::collections::HashMap;
use std::fmt;

use asyncmap_bff::Expr;
use asyncmap_cube::VarId;
use asyncmap_hazard::{
    reverify_containment, wide_containment, Containment, Refutation, Unknown, ORACLE_VAR_LIMIT,
};
use asyncmap_network::{
    DecompTrace, EquationSet, GateOp, Network, NodeKind, RewriteRule, RewriteStep, SignalId,
};

use crate::cache::{discharge, AuditCache, Obligation};
use crate::equiv::{compact_onto, prove_equal, union_support, EquivProof};
use crate::report::{AuditReport, Severity};

/// Walks the gate tree rooted at `signal` and compares the expression it
/// realizes against `expected` without building it: inputs realize
/// variables (by input position), inverters `Not`, buffers their fanin,
/// AND/OR gates the raw `Expr` nodes the certified balanced-tree
/// regrouping claims. Every gate of the tree is marked in `visited`,
/// whether or not it matches; `expected` is `None` below a mismatch,
/// where the walk only marks.
fn realizes(
    net: &Network,
    signal: SignalId,
    positions: &HashMap<SignalId, usize>,
    visited: &mut [bool],
    expected: Option<&Expr>,
) -> bool {
    match net.node(signal) {
        NodeKind::Input => {
            let v = VarId(positions[&signal]);
            matches!(expected, Some(Expr::Var(e)) if *e == v)
        }
        NodeKind::Gate { op, fanin } => {
            visited[signal.index()] = true;
            // The operands `expected` claims for this gate, if it claims
            // the gate's operator (inverters and buffers have one fanin).
            let kids: Option<&[Expr]> = match (op, expected) {
                (GateOp::Inv, Some(Expr::Not(e))) => Some(std::slice::from_ref(&**e)),
                (GateOp::Buf, Some(e)) => Some(std::slice::from_ref(e)),
                (GateOp::And, Some(Expr::And(es))) | (GateOp::Or, Some(Expr::Or(es))) => Some(es),
                _ => None,
            };
            let mut ok = kids.is_some_and(|k| k.len() == fanin.len());
            for (i, &f) in fanin.iter().enumerate() {
                let kid = kids.filter(|_| ok).map(|k| &k[i]);
                ok &= realizes(net, f, positions, visited, kid);
            }
            ok
        }
    }
}

/// Greedy left-to-right fringe match: `true` iff splitting same-operator
/// binary nodes of `tree` (without any commutation) yields exactly the
/// operand sequence `operands`. Operand equality is tried before
/// splitting, so operands that themselves use the same operator are
/// matched whole.
fn fringe_matches(tree: &Expr, operands: &[Expr], is_and: bool) -> bool {
    fn go(tree: &Expr, operands: &[Expr], pos: usize, is_and: bool) -> Option<usize> {
        if pos < operands.len() && *tree == operands[pos] {
            return Some(pos + 1);
        }
        let es = match (tree, is_and) {
            (Expr::And(es), true) | (Expr::Or(es), false) => es,
            _ => return None,
        };
        let mut pos = pos;
        for e in es {
            pos = go(e, operands, pos, is_and)?;
        }
        Some(pos)
    }
    go(tree, operands, 0, is_and) == Some(operands.len())
}

/// `true` iff `step` is syntactically an instance of its claimed rule.
fn rule_applies(step: &RewriteStep) -> bool {
    match step.rule {
        RewriteRule::AssocRegroup => match &step.before {
            Expr::And(es) => es.len() >= 2 && fringe_matches(&step.after, es, true),
            Expr::Or(es) => es.len() >= 2 && fringe_matches(&step.after, es, false),
            _ => false,
        },
        RewriteRule::DeMorganPush => {
            let Expr::Not(inner) = &step.before else {
                return false;
            };
            match &**inner {
                // Involution: (e')' → e.
                Expr::Not(e) => step.after == **e,
                // One-level push: (x₁·…·xₖ)' → x₁'+…+xₖ' and the dual.
                Expr::And(es) => {
                    step.after == Expr::or(es.iter().map(|e| e.clone().not()).collect())
                }
                Expr::Or(es) => {
                    step.after == Expr::and(es.iter().map(|e| e.clone().not()).collect())
                }
                _ => false,
            }
        }
        RewriteRule::InputInverter => {
            step.before == step.after
                && matches!(&step.before, Expr::Not(v) if matches!(**v, Expr::Var(_)))
        }
    }
}

fn count_proof(report: &mut AuditReport, proof: EquivProof) {
    match proof {
        EquivProof::Truth => report.counters.truth_proofs += 1,
        EquivProof::Bdd => report.counters.bdd_proofs += 1,
    }
}

/// Where a decomposition diagnostic points. Rendered only when a
/// diagnostic is pushed, so a clean replay formats no paths.
enum Site<'a> {
    Step {
        equation: &'a str,
        index: usize,
        rule: RewriteRule,
    },
    Equation(&'a str),
}

impl fmt::Display for Site<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Step {
                equation,
                index,
                rule,
            } => write!(f, "{equation}:step{index}:{}", rule.name()),
            Site::Equation(name) => write!(f, "{name}:equation"),
        }
    }
}

/// The expression-pure obligations of a step or equation certificate:
/// `after ≡ before`, then `hazards(after) ⊆ hazards(before)`. Returns
/// `false` (after pushing the finding) when the equivalence is refuted.
fn prove_rewrite(
    report: &mut AuditReport,
    before: &Expr,
    after: &Expr,
    nvars: usize,
    site: &Site<'_>,
    divergence: &str,
) -> bool {
    let (eq, proof) = prove_equal(before, after, nvars);
    count_proof(report, proof);
    if !eq {
        report.push(
            Severity::Error,
            "decomp.not-equivalent",
            site.to_string(),
            divergence.to_owned(),
        );
        return false;
    }
    match recheck_monotone(after, before) {
        Containment::Proven => report.counters.hazard_rechecks += 1,
        Containment::Unknown(reason) => {
            report.counters.hazard_partial += 1;
            if reason == Unknown::FlattenCap {
                report.push(
                    Severity::Info,
                    "decomp.hazard-partial",
                    site.to_string(),
                    "hazard re-check degraded: skipped: product estimate over the flatten \
                     replay cap"
                        .to_owned(),
                );
            }
        }
        Containment::Refuted(how) => {
            let detail = if how == Refutation::Sweep {
                report.counters.hazard_rechecks += 1;
                "full reverification ladder"
            } else {
                report.counters.hazard_partial += 1;
                "partial: static-1 adjacency subset on flattened covers"
            };
            report.push(
                Severity::Error,
                "decomp.hazard-containment",
                site.to_string(),
                format!("hazards(after) ⊆ hazards(before) refuted ({detail})"),
            );
        }
    }
    true
}

/// Re-proves `hazards(candidate) ⊆ hazards(reference)`: by the agreeing
/// [`reverify_containment`] battery on ≤ [`ORACLE_VAR_LIMIT`] supports,
/// by the [`wide_containment`] ladder above (DESIGN.md §6).
fn recheck_monotone(candidate: &Expr, reference: &Expr) -> Containment {
    let support = union_support(candidate, reference);
    let k = support.len().max(1);
    let cand = compact_onto(candidate, &support);
    let refr = compact_onto(reference, &support);
    if k <= ORACLE_VAR_LIMIT {
        let r = reverify_containment(&cand, &refr, k);
        return Containment::from_sweep(r.accepted() && r.methods_agree());
    }
    wide_containment(&cand, &refr, k)
}

/// Replays a [`DecompTrace`] against the network it claims to describe.
/// Does not consult the source equations — see [`check_decomp`] for the
/// variant that additionally checks source fidelity.
pub fn check_decomp_trace(net: &Network, trace: &DecompTrace) -> AuditReport {
    check_decomp_trace_inner(net, trace, None)
}

/// [`check_decomp_trace`] with reuse: the per-step and per-equation
/// equivalence and hazard-monotonicity obligations — pure functions of
/// the certified expressions alone — are skipped when an identical
/// obligation already replayed clean under `cache`. Everything tied to
/// *this* network (rule applicability, node realization walks, the
/// no-uncertified-logic sweep, output-root checks) always runs in full.
pub fn check_decomp_trace_cached(
    net: &Network,
    trace: &DecompTrace,
    cache: &mut AuditCache,
) -> AuditReport {
    check_decomp_trace_inner(net, trace, Some(cache))
}

fn check_decomp_trace_inner(
    net: &Network,
    trace: &DecompTrace,
    mut cache: Option<&mut AuditCache>,
) -> AuditReport {
    let mut report = AuditReport::default();
    report.counters.rewrite_steps = trace.steps.len();
    report.counters.equations = trace.equations.len();
    let positions = net.input_positions();
    let mut visited = vec![false; net.len()];

    for (i, step) in trace.steps.iter().enumerate() {
        let site = Site::Step {
            equation: &step.equation,
            index: i,
            rule: step.rule,
        };
        if !rule_applies(step) {
            report.push(
                Severity::Error,
                "decomp.rule-mismatch",
                site.to_string(),
                format!(
                    "before/after pair is not an instance of {}",
                    step.rule.name()
                ),
            );
            continue;
        }
        match step.rule {
            RewriteRule::InputInverter => {
                // before == after: nothing to prove functionally. The
                // obligation is the node realization: an inverter gate
                // over exactly the claimed primary input.
                let Expr::Not(v) = &step.before else {
                    unreachable!("rule_applies checked the shape");
                };
                let Expr::Var(v) = **v else {
                    unreachable!("rule_applies checked the shape");
                };
                let ok = match net.node(step.node) {
                    NodeKind::Gate {
                        op: GateOp::Inv,
                        fanin,
                    } => fanin.len() == 1 && fanin[0] == net.inputs()[v.index()],
                    _ => false,
                };
                if ok {
                    visited[step.node.index()] = true;
                } else {
                    report.push(
                        Severity::Error,
                        "decomp.node-mismatch",
                        site.to_string(),
                        format!(
                            "node {:?} is not an inverter over input {}",
                            step.node,
                            v.index()
                        ),
                    );
                }
                continue;
            }
            RewriteRule::AssocRegroup | RewriteRule::DeMorganPush => {
                // The equivalence and monotonicity obligations depend only
                // on (nvars, rule, before, after) — never on the network —
                // so a memoized outcome of the identical obligation
                // discharges this one.
                let proceed = discharge(
                    &mut report,
                    cache.as_deref_mut(),
                    Obligation::Step(step.rule),
                    trace.nvars,
                    &[&step.before, &step.after],
                    &site,
                    |report| {
                        prove_rewrite(
                            report,
                            &step.before,
                            &step.after,
                            trace.nvars,
                            &site,
                            "before and after compute different functions",
                        )
                    },
                );
                if !proceed {
                    continue;
                }
                // Only assoc steps certify the final shape of their node's
                // gate tree (a DeMorgan push is an intermediate rewrite;
                // its node realizes the *fully pushed* form, covered by
                // the equation certificate).
                if step.rule == RewriteRule::AssocRegroup
                    && !realizes(net, step.node, &positions, &mut visited, Some(&step.after))
                {
                    report.push(
                        Severity::Error,
                        "decomp.node-mismatch",
                        site.to_string(),
                        format!(
                            "gate tree at {:?} does not realize the certified regrouping",
                            step.node
                        ),
                    );
                }
            }
        }
    }

    let outputs: HashMap<&str, SignalId> = net
        .outputs()
        .iter()
        .map(|(n, s)| (n.as_str(), *s))
        .collect();
    for cert in &trace.equations {
        let site = Site::Equation(&cert.name);
        match outputs.get(cert.name.as_str()) {
            Some(&root) if root == cert.root => {}
            _ => {
                report.push(
                    Severity::Error,
                    "decomp.output-mismatch",
                    site.to_string(),
                    format!(
                        "network does not mark {:?} as output {:?}",
                        cert.root, cert.name
                    ),
                );
                continue;
            }
        }
        let proceed = discharge(
            &mut report,
            cache.as_deref_mut(),
            Obligation::Equation,
            trace.nvars,
            &[&cert.source, &cert.result],
            &site,
            |report| {
                prove_rewrite(
                    report,
                    &cert.source,
                    &cert.result,
                    trace.nvars,
                    &site,
                    "decomposed result computes a different function than the source",
                )
            },
        );
        if !proceed {
            continue;
        }
        if !realizes(net, cert.root, &positions, &mut visited, Some(&cert.result)) {
            report.push(
                Severity::Error,
                "decomp.node-mismatch",
                site.to_string(),
                "network walk from the output root does not realize the certified expression"
                    .to_owned(),
            );
        }
    }

    // No uncertified logic: every gate must be reachable from a certified
    // walk (output roots expand through every cube tree and every shared
    // inverter).
    for s in net.signals() {
        if matches!(net.node(s), NodeKind::Gate { .. }) && !visited[s.index()] {
            report.push(
                Severity::Error,
                "decomp.uncovered-gate",
                format!("{:?}", s),
                "gate is not covered by any certified equation walk".to_owned(),
            );
        }
    }
    report
}

/// [`check_decomp_trace`], plus source fidelity: every equation of `eqs`
/// must have a certificate whose source expression is exactly the
/// two-level form of its cover (no simplification slipped in before the
/// certified rewrites started).
pub fn check_decomp(eqs: &EquationSet, net: &Network, trace: &DecompTrace) -> AuditReport {
    check_decomp_inner(eqs, net, trace, None)
}

/// [`check_decomp`] over [`check_decomp_trace_cached`]: same reuse rules,
/// and source fidelity is always checked in full.
pub fn check_decomp_cached(
    eqs: &EquationSet,
    net: &Network,
    trace: &DecompTrace,
    cache: &mut AuditCache,
) -> AuditReport {
    check_decomp_inner(eqs, net, trace, Some(cache))
}

fn check_decomp_inner(
    eqs: &EquationSet,
    net: &Network,
    trace: &DecompTrace,
    cache: Option<&mut AuditCache>,
) -> AuditReport {
    let mut report = check_decomp_trace_inner(net, trace, cache);
    if trace.nvars != eqs.inputs.len() {
        report.push(
            Severity::Error,
            "decomp.nvars-mismatch",
            "trace".to_owned(),
            format!(
                "trace ranges over {} variables, equations over {}",
                trace.nvars,
                eqs.inputs.len()
            ),
        );
    }
    let certs: HashMap<&str, &asyncmap_network::EquationCert> = trace
        .equations
        .iter()
        .map(|c| (c.name.as_str(), c))
        .collect();
    for (name, cover) in &eqs.equations {
        match certs.get(name.as_str()) {
            None => report.push(
                Severity::Error,
                "decomp.missing-equation",
                name.clone(),
                "equation has no end-to-end certificate".to_owned(),
            ),
            Some(cert) => {
                if cert.source != Expr::from_cover(cover) {
                    report.push(
                        Severity::Error,
                        "decomp.source-mismatch",
                        name.clone(),
                        "certificate source is not the two-level form of the equation's cover"
                            .to_owned(),
                    );
                }
            }
        }
    }
    if trace.equations.len() != eqs.equations.len() {
        report.push(
            Severity::Error,
            "decomp.missing-equation",
            "trace".to_owned(),
            format!(
                "{} equation certificate(s) for {} equation(s)",
                trace.equations.len(),
                eqs.equations.len()
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_network::{async_tech_decomp_traced, decompose_expr_demorgan};

    fn figure3() -> EquationSet {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        EquationSet::new(vars, vec![("f".to_owned(), f)])
    }

    #[test]
    fn honest_trace_is_clean() {
        let eqs = figure3();
        let (net, trace) = async_tech_decomp_traced(&eqs);
        let report = check_decomp(&eqs, &net, &trace);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.counters.rewrite_steps, trace.steps.len());
        assert_eq!(report.counters.equations, 1);
    }

    #[test]
    fn demorgan_trace_is_clean() {
        let inputs = VarTable::from_names(["w", "x", "y"]);
        let mut scratch = inputs.clone();
        let e = Expr::parse("(w*x + y)' + w*y", &mut scratch).unwrap();
        let (net, trace) = decompose_expr_demorgan(&inputs, &e, "f");
        let report = check_decomp_trace(&net, &trace);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn commuted_regroup_is_rejected() {
        let eqs = figure3();
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        // Swap the operand order inside the first regroup's `before`:
        // commutation is not a hazard-preserving law, so the fringe match
        // must fail even though the function is unchanged.
        let step = trace
            .steps
            .iter_mut()
            .find(|s| s.rule == RewriteRule::AssocRegroup)
            .unwrap();
        let Expr::And(es) = &mut step.before else {
            panic!("AND regroup expected")
        };
        es.reverse();
        let report = check_decomp_trace(&net, &trace);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "decomp.rule-mismatch"));
    }

    #[test]
    fn pruned_source_is_rejected() {
        // A certificate claiming the decomposition started from the
        // *simplified* cover (dropping the consensus cube bc) fails both
        // source fidelity and the node-realization obligations.
        let eqs = figure3();
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        let mut pruned_vars = VarTable::from_names(["a", "b", "c"]);
        trace.equations[0].source = Expr::parse("a*b + a'*c", &mut pruned_vars).unwrap();
        let report = check_decomp(&eqs, &net, &trace);
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "decomp.source-mismatch"));
    }

    #[test]
    fn forged_node_is_rejected() {
        let eqs = figure3();
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        let (a, b) = (trace.equations[0].root, trace.steps[0].node);
        trace.steps[0].node = a;
        trace.equations[0].root = b;
        let report = check_decomp_trace(&net, &trace);
        assert!(!report.is_clean());
    }

    #[test]
    fn mismatched_walk_still_marks_its_whole_tree() {
        // A realization walk that diverges from the certificate at the
        // root must mark the same gates as a matching walk, so a forged
        // certificate never changes which gates count as uncovered.
        let eqs = figure3();
        let (net, trace) = async_tech_decomp_traced(&eqs);
        let cert = &trace.equations[0];
        let positions = net.input_positions();
        let mut matched = vec![false; net.len()];
        assert!(realizes(
            &net,
            cert.root,
            &positions,
            &mut matched,
            Some(&cert.result)
        ));
        for forged in [Expr::Const(true), cert.result.clone().not()] {
            let mut marked = vec![false; net.len()];
            assert!(!realizes(
                &net,
                cert.root,
                &positions,
                &mut marked,
                Some(&forged)
            ));
            assert_eq!(marked, matched);
        }
        assert!(matched.iter().filter(|&&m| m).count() > 1);
    }

    #[test]
    fn regrouping_is_monotone() {
        let mut vars = VarTable::new();
        let before = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let after = match &before {
            Expr::Or(es) => Expr::Or(vec![
                Expr::Or(vec![es[0].clone(), es[1].clone()]),
                es[2].clone(),
            ]),
            _ => unreachable!(),
        };
        assert_eq!(recheck_monotone(&after, &before), Containment::Proven);
    }

    #[test]
    fn cube_deletion_is_refuted() {
        // Dropping the redundant consensus cube bc introduces a static
        // 1-hazard (paper Figure 3): containment must be refuted.
        let mut vars = VarTable::new();
        let full = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let pruned = Expr::parse_in("a*b + a'*c", &vars).unwrap();
        assert!(recheck_monotone(&pruned, &full).is_refuted());
    }

    #[test]
    fn wide_supports_take_the_partial_path() {
        let terms: Vec<Expr> = (0..9).map(|i| Expr::Var(VarId(i))).collect();
        let flat_or = Expr::Or(terms.clone());
        let regrouped = Expr::Or(vec![
            Expr::Or(terms[..5].to_vec()),
            Expr::Or(terms[5..].to_vec()),
        ]);
        assert_eq!(
            recheck_monotone(&regrouped, &flat_or),
            Containment::Unknown(Unknown::Static1Only)
        );
        // Seven supports skip the exhaustive rung: an identical step is
        // proven structurally.
        let seven = Expr::Or(terms[..7].to_vec());
        assert_eq!(recheck_monotone(&seven, &seven), Containment::Proven);
    }
}
