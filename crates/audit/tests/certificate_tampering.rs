//! Adversarial property tests: every class of certificate tampering must
//! be flagged by the replay checker, and every honest trace — including
//! the full built-in benchmark suite — must audit clean.
//!
//! Tamper classes, per the audit's threat model:
//!
//! * **swapped rule id** — a step relabeled as a different rewrite rule;
//! * **edited before/after expressions** — complement wraps, dropped
//!   operands, commuted operand order (commutation is *not* a
//!   hazard-preserving law the decomposition may use);
//! * **forged fanout evidence** — partition cuts with dropped, duplicated
//!   or fabricated consumers, removed cuts, or duplicated cut points.
//!
//! Every tampered run is also audited through [`check_pipeline_cached`]
//! with a cache warmed on the honest run: a warm cache must report the
//! same findings as the uncached pipeline.

use asyncmap_audit::{
    audit_equations, audit_equations_cached, check_decomp_trace, check_partition, check_pipeline,
    check_pipeline_cached, check_spec, AuditCache,
};
use asyncmap_bff::Expr;
use asyncmap_cube::{Cover, Cube, Phase, VarId, VarTable};
use asyncmap_network::{
    async_tech_decomp_traced, partition_traced, Cone, DecompTrace, EquationSet, Network,
    PartitionTrace, RewriteRule,
};
use proptest::prelude::*;

const NVARS: usize = 4;

prop_compose! {
    fn arb_cube()(used in 1u8..16, phase in 0u8..16) -> Cube {
        let mut lits = Vec::new();
        for v in 0..NVARS {
            if (used >> v) & 1 == 1 {
                let p = if (phase >> v) & 1 == 1 { Phase::Pos } else { Phase::Neg };
                lits.push((VarId(v), p));
            }
        }
        Cube::from_literals(NVARS, lits)
    }
}

prop_compose! {
    /// A non-constant cover: `EquationSet` rejects empty and tautological
    /// covers, so those rare draws fall back to a canonical two-literal
    /// cube (the vendored proptest shim has no `prop_filter`).
    fn arb_cover()(cubes in prop::collection::vec(arb_cube(), 1..5)) -> Cover {
        let cover = Cover::from_cubes(NVARS, cubes);
        if cover.is_empty() || cover.is_tautology() {
            let fallback = Cube::from_literals(
                NVARS,
                [(VarId(0), Phase::Pos), (VarId(1), Phase::Neg)],
            );
            Cover::from_cubes(NVARS, vec![fallback])
        } else {
            cover
        }
    }
}

prop_compose! {
    fn arb_eqs()(covers in prop::collection::vec(arb_cover(), 1..3)) -> EquationSet {
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let equations = covers
            .into_iter()
            .enumerate()
            .map(|(i, c)| (format!("f{i}"), c))
            .collect();
        EquationSet::new(vars, equations)
    }
}

/// The next rule in a fixed rotation — always a *different* claimed rule.
fn rotate_rule(rule: RewriteRule) -> RewriteRule {
    match rule {
        RewriteRule::AssocRegroup => RewriteRule::DeMorganPush,
        RewriteRule::DeMorganPush => RewriteRule::InputInverter,
        RewriteRule::InputInverter => RewriteRule::AssocRegroup,
    }
}

/// Applies one expression tamper, guaranteed to change the expression:
/// drop an operand / reverse operand order where the shape allows it,
/// otherwise wrap in a complement.
fn tamper_expr(e: &Expr, class: u8) -> Expr {
    match (class % 3, e) {
        (1, Expr::And(es)) if es.len() > 2 => Expr::And(es[1..].to_vec()),
        (1, Expr::Or(es)) if es.len() > 2 => Expr::Or(es[1..].to_vec()),
        (2, Expr::And(es)) if es.first() != es.last() => {
            let mut r = es.clone();
            r.reverse();
            Expr::And(r)
        }
        (2, Expr::Or(es)) if es.first() != es.last() => {
            let mut r = es.clone();
            r.reverse();
            Expr::Or(r)
        }
        _ => e.clone().not(),
    }
}

/// Audits a tampered front-end run of `eqs` uncached and through a cache
/// warmed on the honest run, and requires both to report the same
/// findings (code, path and message, in order) and notes.
fn warm_matches_cold(
    eqs: &EquationSet,
    net: &Network,
    dtrace: &DecompTrace,
    cones: &[Cone],
    ptrace: &PartitionTrace,
) -> Result<(), TestCaseError> {
    let mut cache = AuditCache::new();
    audit_equations_cached(eqs, &mut cache);
    let warm = check_pipeline_cached(eqs, net, dtrace, cones, ptrace, &mut cache);
    let cold = check_pipeline(eqs, net, dtrace, cones, ptrace);
    let diagnostics = |r: &asyncmap_audit::AuditReport| {
        [&r.findings, &r.notes].map(|g| g.iter().map(|f| f.to_string()).collect::<Vec<_>>())
    };
    prop_assert!(!cold.is_clean(), "tampering was not flagged");
    prop_assert_eq!(diagnostics(&warm), diagnostics(&cold));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn untampered_random_designs_audit_clean(eqs in arb_eqs()) {
        let report = audit_equations(&eqs);
        prop_assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn swapped_rule_id_is_flagged(eqs in arb_eqs(), pick in 0usize..4096) {
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        if trace.steps.is_empty() {
            return Ok(());
        }
        let i = pick % trace.steps.len();
        trace.steps[i].rule = rotate_rule(trace.steps[i].rule);
        let report = check_decomp_trace(&net, &trace);
        prop_assert!(!report.is_clean(), "relabeled step {i} was not flagged");
        let (cones, ptrace) = partition_traced(&net);
        warm_matches_cold(&eqs, &net, &trace, &cones, &ptrace)?;
    }

    #[test]
    fn edited_step_expr_is_flagged(
        eqs in arb_eqs(),
        pick in 0usize..4096,
        side in any::<bool>(),
        class in 0u8..3,
    ) {
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        if trace.steps.is_empty() {
            return Ok(());
        }
        let i = pick % trace.steps.len();
        let step = &mut trace.steps[i];
        if side {
            step.before = tamper_expr(&step.before, class);
        } else {
            step.after = tamper_expr(&step.after, class);
        }
        let report = check_decomp_trace(&net, &trace);
        prop_assert!(!report.is_clean(), "edited step {i} was not flagged");
        let (cones, ptrace) = partition_traced(&net);
        warm_matches_cold(&eqs, &net, &trace, &cones, &ptrace)?;
    }

    #[test]
    fn forged_fanout_evidence_is_flagged(
        eqs in arb_eqs(),
        pick in 0usize..4096,
        class in 0u8..4,
    ) {
        let (net, dtrace) = async_tech_decomp_traced(&eqs);
        let (mut cones, mut trace) = partition_traced(&net);
        if trace.cuts.is_empty() {
            return Ok(());
        }
        match class {
            // Drop a consumer from a cut that has one.
            0 => {
                let Some(cut) = trace.cuts.iter_mut().find(|c| !c.consumers.is_empty()) else {
                    return Ok(());
                };
                cut.consumers.pop();
                cut.fanout = cut.consumers.len();
            }
            // Duplicate a consumer (inflated evidence).
            1 => {
                let Some(cut) = trace.cuts.iter_mut().find(|c| !c.consumers.is_empty()) else {
                    return Ok(());
                };
                let extra = cut.consumers[0];
                cut.consumers.push(extra);
                cut.fanout = cut.consumers.len();
            }
            // Remove a cut point (and its cone) entirely.
            2 => {
                let i = pick % trace.cuts.len();
                trace.cuts.remove(i);
                cones.remove(i);
            }
            // Fabricate a second certificate for an already-cut signal.
            _ => {
                let i = pick % trace.cuts.len();
                let forged = trace.cuts[i].clone();
                trace.cuts.push(forged);
                cones.push(cones[i].clone());
            }
        }
        let report = check_partition(&net, &cones, &trace);
        prop_assert!(
            !report.is_clean(),
            "forged partition evidence (class {class}) was not flagged"
        );
        warm_matches_cold(&eqs, &net, &dtrace, &cones, &trace)?;
    }
}

#[test]
fn all_builtin_benchmarks_audit_clean() {
    for (name, eqs) in asyncmap_burst::all_benchmarks() {
        let report = audit_equations(&eqs);
        assert!(report.is_clean(), "{name}: {}", report.render());
        assert!(
            report.counters.num_certificates() > 0,
            "{name}: empty trail"
        );
    }
}

#[test]
fn all_builtin_specs_check_clean() {
    for def in asyncmap_burst::BENCHMARKS {
        let spec = asyncmap_burst::benchmark_spec(def.name);
        let report = check_spec(&spec);
        assert!(report.is_clean(), "{}: {}", def.name, report.render());
        assert!(report.counters.spec_states > 0);
    }
}
