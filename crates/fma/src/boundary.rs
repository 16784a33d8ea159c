//! Per-cone hazard containment at the cone boundaries.
//!
//! A cone's leaves are primary inputs or other cones' roots, and the
//! generalized-fundamental-mode composition argument (paper Theorem
//! 3.2 / Lemma 4.5) only goes through when every cone adds no hazard over
//! its subject function: any monotone input burst the subject cone
//! handles glitch-free, the mapped cone must too. This module re-derives
//! that obligation from the finished design alone.
//!
//! Each cone asks the memoized containment oracle
//! ([`HazardCache::containment`]; DESIGN.md §6) and maps its verdict onto
//! this analyzer's codes: a sweep refutation (≤ [`EXHAUSTIVE_VAR_LIMIT`]
//! leaves) is `boundary.containment`, a wide static-1 refutation
//! `boundary.static1-escape`, and `Unknown` is counted *partial* — a
//! counter, not a finding, as an inconclusive bound is no defect.

use asyncmap_core::{cone_cover_words, mapped_cone_expr, HazardCache, MappedDesign};
use asyncmap_hazard::{Containment, Refutation, EXHAUSTIVE_VAR_LIMIT};
use asyncmap_library::Library;
use asyncmap_report::Severity;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Outcome of one cone's boundary check, merged in partition order.
pub(crate) struct ConeOutcome {
    /// Findings to append: `(severity, code, path, message)`.
    pub findings: Vec<(Severity, &'static str, String, String)>,
    /// Exhaustive sweep ran.
    pub exact: bool,
    /// Wide-cone ladder ran.
    pub wide: bool,
    /// Ladder ended without a full verdict.
    pub partial: bool,
    /// Skipped — the cone's key was already known clean.
    pub reused: bool,
    /// Reuse key, present when the cone is self-contained and quiet.
    pub key: Option<Vec<u32>>,
}

/// Checks every cone on `threads` workers pulling indices from a shared
/// atomic counter; results come back in partition order, so reports are
/// identical across thread counts.
pub(crate) fn check_boundaries(
    design: &MappedDesign,
    library: &Library,
    hcache: &HazardCache,
    known_clean: &HashSet<Vec<u32>>,
    threads: usize,
) -> Vec<ConeOutcome> {
    let jobs = design.cones.len();
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, ConeOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(jobs).max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        local.push((i, check_cone(design, library, hcache, known_clean, i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("boundary worker panicked"))
            .collect()
    });
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

fn check_cone(
    design: &MappedDesign,
    library: &Library,
    hcache: &HazardCache,
    known_clean: &HashSet<Vec<u32>>,
    index: usize,
) -> ConeOutcome {
    let net = &design.subject;
    let cone = &design.cones[index];
    let cover = &design.covers[index];
    let mut out = ConeOutcome {
        findings: Vec::new(),
        exact: false,
        wide: false,
        partial: false,
        reused: false,
        key: cone_cover_words(net, cone, cover),
    };
    if let Some(key) = &out.key {
        if known_clean.contains(key) {
            out.reused = true;
            return out;
        }
    }

    let n = cone.leaves.len();
    let path = net.name(cone.root).to_owned();
    let (subject, _) = cone.to_expr(net);
    let mapped = mapped_cone_expr(net, cone, cover, library);

    out.exact = n <= EXHAUSTIVE_VAR_LIMIT;
    out.wide = !out.exact;
    match hcache.containment(&mapped, &subject, n) {
        Containment::Proven => {}
        // Static-1 behavior certified at best; the dynamic classes are
        // covered by the mapper's per-match checks but not re-proved here.
        Containment::Unknown(_) => out.partial = true,
        Containment::Refuted(Refutation::Sweep) => out.findings.push((
            Severity::Error,
            "boundary.containment",
            path,
            format!(
                "mapped cone can glitch on an input burst its subject function \
                 handles clean ({n} leaves, exhaustive waveform sweep) — upstream \
                 monotone transitions no longer cover this cone's bursts"
            ),
        )),
        Containment::Refuted(Refutation::Static1Escape) => out.findings.push((
            Severity::Error,
            "boundary.static1-escape",
            path,
            format!(
                "wide cone ({n} leaves): a static-1 transition of the subject \
                 function has no single covering product in the mapped \
                 structure's flattening — the cone can glitch while holding 1"
            ),
        )),
    }

    if !out.findings.is_empty() {
        out.key = None;
    }
    out
}
