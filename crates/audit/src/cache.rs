//! Whole-outcome memo for the expression-pure audit obligations.
//!
//! Equivalence proofs, hazard-monotonicity ladders and flatten replays
//! depend only on the certified expressions (and the variable count they
//! range over), never on the network or design they came from. An
//! obligation whose replay produced **no finding** has a deterministic
//! outcome — its certificate accounting and possibly info notes — that
//! [`AuditCache`] stores and replays verbatim under the current path.
//!
//! Keys are exact: a prefix-code `u32` word encoding of
//! `(kind, nvars, exprs…)`, so key equality *is* obligation equality
//! (no hash-only keys, no collision risk). Keys are interned as
//! `Box<[u32]>` and probed as `&[u32]` from a reused scratch buffer, so a
//! warm probe neither allocates nor formats.

use std::collections::HashMap;
use std::fmt;

use asyncmap_bff::Expr;

use crate::report::{AuditCounters, AuditReport, Severity};

/// Reuse cache for the `_cached` audit entry points.
///
/// Every expression-pure obligation — per-step and per-equation
/// equivalence and hazard-monotonicity re-checks, per-cone flatten
/// replays — is memoized once it replays with zero findings. The memo
/// keeps the outcome, not just the fact that it passed: the certificate
/// accounting (flatten traces, exact or partial hazard re-checks) and
/// every info note as (severity, code, message). A later identical
/// obligation is discharged by replaying that outcome under its own
/// path, and counted in the `reused_*` counters of [`AuditCounters`];
/// only the proof-engine counters (`truth_proofs`, `bdd_proofs`) show
/// that no proof ran. So a warm pass reports exactly what a cold pass
/// would, note for note.
///
/// Outcomes with a finding are never memoized: a failing obligation is
/// re-proved, and re-reported, on every audit. Everything that binds
/// certificates to a *particular* network — rule applicability,
/// gate-tree realization walks, the no-uncertified-logic sweep, output
/// roots, source fidelity, the whole partition check — always runs in
/// full, so a warm cache adds no trust assumption beyond "this exact
/// obligation was discharged before, with this outcome".
#[derive(Debug, Default)]
pub struct AuditCache {
    memo: HashMap<Box<[u32]>, Outcome>,
    scratch: Vec<u32>,
}

impl AuditCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total obligation outcomes remembered (steps + equations +
    /// flattens).
    pub fn entries(&self) -> usize {
        self.memo.len()
    }
}

/// The kind of an expression-pure obligation: the first word of its key,
/// and the `reused_*` counter a memo hit bumps.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Obligation {
    /// A rewrite step's equivalence + monotonicity re-check, by rule.
    Step(asyncmap_network::RewriteRule),
    /// An equation certificate's source-vs-result re-check.
    Equation,
    /// A cone's flatten collapse replay.
    Flatten,
}

impl Obligation {
    fn tag(self) -> u32 {
        use asyncmap_network::RewriteRule;
        match self {
            Obligation::Step(RewriteRule::AssocRegroup) => 0,
            Obligation::Step(RewriteRule::DeMorganPush) => 1,
            Obligation::Step(RewriteRule::InputInverter) => 2,
            Obligation::Equation => 3,
            Obligation::Flatten => 4,
        }
    }

    fn reused(self, counters: &mut AuditCounters) -> &mut usize {
        match self {
            Obligation::Step(_) => &mut counters.reused_steps,
            Obligation::Equation => &mut counters.reused_equations,
            Obligation::Flatten => &mut counters.reused_flattens,
        }
    }
}

/// What a finding-free obligation contributed to its report, apart from
/// the proof-engine work counters.
#[derive(Debug)]
struct Outcome {
    /// Deltas of the counters that describe the certificate rather than
    /// the work: `[flatten_traces, hazard_rechecks, hazard_partial]`.
    counts: [usize; 3],
    notes: Box<[Note]>,
}

fn counts(c: &AuditCounters) -> [usize; 3] {
    [c.flatten_traces, c.hazard_rechecks, c.hazard_partial]
}

/// An info note of a memoized outcome, without its path: replays take
/// the path of the obligation being discharged.
#[derive(Debug)]
struct Note {
    severity: Severity,
    code: &'static str,
    message: Box<str>,
}

fn push_word(out: &mut Vec<u32>, n: usize) {
    out.push(u32::try_from(n).expect("audit key word exceeds u32"));
}

/// Appends the prefix-code encoding of `expr`: `0`/`1` for the constants,
/// `2 e` for `Not`, `3 n e₁…eₙ` / `4 n e₁…eₙ` for `And` / `Or`, and
/// `5 + v` for variable `v`. Every code word determines how many words
/// follow, so concatenated encodings decode uniquely.
fn encode(expr: &Expr, out: &mut Vec<u32>) {
    match expr {
        Expr::Const(b) => out.push(u32::from(*b)),
        Expr::Not(e) => {
            out.push(2);
            encode(e, out);
        }
        Expr::And(es) | Expr::Or(es) => {
            out.push(if matches!(expr, Expr::And(_)) { 3 } else { 4 });
            push_word(out, es.len());
            for e in es {
                encode(e, out);
            }
        }
        Expr::Var(v) => push_word(out, v.index().checked_add(5).expect("variable index")),
    }
}

/// Discharges one expression-pure obligation of `kind` over `exprs` in an
/// `nvars`-variable space, reported at `path`.
///
/// Without a cache, or on a memo miss, `check` runs against `report`; it
/// returns `false` when dependent checks must be skipped (it has then
/// pushed a finding). A miss whose check pushed no finding is memoized.
/// On a hit the remembered outcome is replayed under `path` and the
/// kind's `reused_*` counter is bumped. Returns whether dependent checks
/// may proceed.
pub(crate) fn discharge(
    report: &mut AuditReport,
    cache: Option<&mut AuditCache>,
    kind: Obligation,
    nvars: usize,
    exprs: &[&Expr],
    path: &dyn fmt::Display,
    check: impl FnOnce(&mut AuditReport) -> bool,
) -> bool {
    let Some(cache) = cache else {
        return check(report);
    };
    let key = &mut cache.scratch;
    key.clear();
    key.push(kind.tag());
    push_word(key, nvars);
    for e in exprs {
        encode(e, key);
    }
    if let Some(out) = cache.memo.get(key.as_slice()) {
        let c = &mut report.counters;
        *kind.reused(c) += 1;
        c.flatten_traces += out.counts[0];
        c.hazard_rechecks += out.counts[1];
        c.hazard_partial += out.counts[2];
        for n in out.notes.iter() {
            report.push(n.severity, n.code, path.to_string(), n.message.to_string());
        }
        return true;
    }
    let (f0, n0) = (report.findings.len(), report.notes.len());
    let c0 = counts(&report.counters);
    let proceed = check(report);
    if proceed && report.findings.len() == f0 {
        let notes = &report.notes[n0..];
        debug_assert!(notes.iter().all(|n| n.path == path.to_string()));
        let c1 = counts(&report.counters);
        let outcome = Outcome {
            counts: [0, 1, 2].map(|i| c1[i] - c0[i]),
            notes: notes
                .iter()
                .map(|n| Note {
                    severity: n.severity,
                    code: n.code,
                    message: n.message.as_str().into(),
                })
                .collect(),
        };
        cache.memo.insert(cache.scratch.as_slice().into(), outcome);
    }
    proceed
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarId;

    fn words(e: &Expr) -> Vec<u32> {
        let mut out = Vec::new();
        encode(e, &mut out);
        out
    }

    #[test]
    fn encoding_separates_nesting_and_operators() {
        let (a, b, c) = (
            Expr::Var(VarId(0)),
            Expr::Var(VarId(1)),
            Expr::Var(VarId(2)),
        );
        let flat = Expr::And(vec![a.clone(), b.clone(), c.clone()]);
        let left = Expr::And(vec![Expr::And(vec![a.clone(), b.clone()]), c.clone()]);
        let right = Expr::And(vec![a.clone(), Expr::And(vec![b.clone(), c.clone()])]);
        let dual = Expr::Or(vec![a.clone(), b.clone(), c.clone()]);
        let keys = [&flat, &left, &right, &dual].map(words);
        for (i, x) in keys.iter().enumerate() {
            for y in &keys[i + 1..] {
                assert_ne!(x, y);
            }
        }
        assert_eq!(words(&a.not()), vec![2, 5]);
        assert_eq!(words(&Expr::Const(true)), vec![1]);
    }
}
