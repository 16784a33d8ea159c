//! Theorem 3.2 re-verification: every binding of a hazardous cell must
//! satisfy `hazards(cell) ⊆ hazards(covered subnetwork)`, re-derived here
//! through the hazard crate's full battery
//! ([`asyncmap_hazard::reverify_containment`]) rather than through the
//! mapper's cached fast path. Every composed cone structure is also checked
//! against its original cone by [`asyncmap_hazard::containment`] — the
//! composition Lemma 4.5 licenses, checked rather than assumed; an
//! undecided wide cone is counted in `LintCounters::cone_unknown`.

use crate::{
    composed_cover_expr, path_of, subnetwork_expr, substitute, InstanceView, LintReport, Severity,
};
use asyncmap_bff::Expr;
use asyncmap_core::{ConeCover, MappedDesign};
use asyncmap_hazard::{containment, reverify_containment, Containment};
use asyncmap_library::Library;
use asyncmap_network::{Cone, SignalId};
use std::collections::HashMap;

pub(crate) fn check_cover(
    design: &MappedDesign,
    library: &Library,
    cone: &Cone,
    cover: &ConeCover,
    views: &[InstanceView<'_>],
    cell_hazardous: &[bool],
    report: &mut LintReport,
) {
    let net = &design.subject;
    let mut all_sound = true;
    for view in views {
        if !view.structurally_sound {
            all_sound = false;
            continue;
        }
        let inst = view.inst;
        if !cell_hazardous
            .get(inst.cell_index)
            .copied()
            .unwrap_or(false)
        {
            // A hazard-free cell can never glitch, so containment holds
            // trivially on any binding.
            continue;
        }
        let var_of: HashMap<SignalId, usize> = view
            .cut_signals
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        if !inst.inputs.iter().all(|s| var_of.contains_key(s)) {
            continue; // unbound pin, already an error from the function pass
        }
        let n = view.cut_signals.len();
        let cell = &library.cells()[inst.cell_index];
        let args: Vec<Expr> = inst
            .inputs
            .iter()
            .map(|s| Expr::Var(asyncmap_cube::VarId(var_of[s])))
            .collect();
        let candidate = substitute(cell.bff(), &args);
        let reference = subnetwork_expr(net, inst.output, &var_of);
        report.counters.theorem32_checks += 1;
        let r = reverify_containment(&candidate, &reference, n);
        if !r.accepted() {
            let severity = if r.exhaustive.is_some() {
                // The exhaustive sweep is exact: this is a real violation.
                Severity::Error
            } else {
                // Guided-only verdict on a wide support; may be
                // conservative.
                Severity::Warning
            };
            report.push(
                severity,
                "theorem32.containment-violation",
                path_of(net, cone, Some(inst)),
                format!(
                    "hazardous cell {} on this binding has hazards the covered subnetwork lacks \
                     (exhaustive: {:?}, analytic: {}, static-1 adjacency: {})",
                    cell.name(),
                    r.exhaustive,
                    r.analytic,
                    r.static1_adjacency
                ),
            );
        } else if !r.methods_agree() {
            report.push(
                Severity::Info,
                "theorem32.method-disagreement",
                path_of(net, cone, Some(inst)),
                format!(
                    "hazard analyses disagree on cell {} (exhaustive: {:?}, analytic: {}, \
                     static-1 adjacency: {}, oracle static-1: {:?}) — possible analysis bug",
                    cell.name(),
                    r.exhaustive,
                    r.analytic,
                    r.static1_adjacency,
                    r.oracle_static1
                ),
            );
        }
    }

    // Whole-cone containment: the composed mapped structure against the
    // original cone, over the cone's leaf space.
    if !all_sound {
        return; // composition is meaningless on a structurally broken cover
    }
    let Some(composed) = composed_cover_expr(cone, cover, library) else {
        return; // missing driver, already a structure finding
    };
    report.counters.cone_sweeps += 1;
    let (orig, _) = cone.to_expr(net);
    match containment(&composed, &orig, cone.leaves.len()) {
        Containment::Proven => {}
        Containment::Unknown(_) => report.counters.cone_unknown += 1,
        Containment::Refuted(_) => report.push(
            Severity::Error,
            "theorem32.cone-containment",
            path_of(net, cone, None),
            "the composed mapped cone has hazards the original cone lacks".to_owned(),
        ),
    }
}
