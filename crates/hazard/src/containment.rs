//! The hazard-containment oracle: one three-way decision ladder for the
//! paper's central obligation `hazards(candidate) ⊆ hazards(reference)`
//! (Theorem 3.2 / Lemma 4.5), asked by every cone- and step-level checker
//! (DESIGN.md §6). Hazard detection is hard in general (Komarath &
//! Saurabh 2020), so `Unknown` stays an honest, stated outcome.

use crate::compare::{hazards_subset_exhaustive, EXHAUSTIVE_VAR_LIMIT};
use crate::static1::static1_subset;
use asyncmap_bff::{flatten, Expr};

/// Largest [`product_estimate`] either side may have to be flattened.
pub const FLATTEN_CAP: u64 = 4096;

/// A three-way verdict on `hazards(candidate) ⊆ hazards(reference)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Containment {
    /// Containment holds.
    Proven,
    /// Containment fails; the rung that showed it.
    Refuted(Refutation),
    /// The ladder stopped without a full verdict; the reason why.
    Unknown(Unknown),
}

/// The rung that refuted containment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Refutation {
    /// The exhaustive sweep found a burst only the candidate glitches on.
    Sweep,
    /// A static-1 transition single-product-covered in the reference's
    /// flattening is not in the candidate's.
    Static1Escape,
}

/// Why a wide-support verdict stayed open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unknown {
    /// Static-1 containment holds; the other classes are not re-proved.
    Static1Only,
    /// A side's product estimate exceeds [`FLATTEN_CAP`].
    FlattenCap,
}

impl Containment {
    /// The verdict of an exact yes/no check: `Proven` or `Refuted(Sweep)`.
    pub fn from_sweep(contained: bool) -> Self {
        if contained {
            Containment::Proven
        } else {
            Containment::Refuted(Refutation::Sweep)
        }
    }

    /// `true` iff containment was refuted.
    pub fn is_refuted(self) -> bool {
        matches!(self, Containment::Refuted(_))
    }
}

/// Decides `hazards(candidate) ⊆ hazards(reference)` for two structures
/// of one function over `nvars` variables: by the exhaustive transition
/// sweep ([`hazards_subset_exhaustive`], exact under the pure-delay model)
/// up to [`EXHAUSTIVE_VAR_LIMIT`] variables, by [`wide_containment`] above.
///
/// # Examples
///
/// ```
/// use asyncmap_bff::Expr;
/// use asyncmap_cube::VarTable;
/// use asyncmap_hazard::{containment, Containment};
///
/// let mut vars = VarTable::new();
/// // Figure 3: dropping the consensus product bc exposes a 1-hazard.
/// let full = Expr::parse("a*b + a'*c + b*c", &mut vars)?;
/// let pruned = Expr::parse_in("a*b + a'*c", &vars)?;
/// let regrouped = Expr::parse_in("(a*b + a'*c) + b*c", &vars)?;
/// assert_eq!(containment(&regrouped, &full, 3), Containment::Proven);
/// assert!(containment(&pruned, &full, 3).is_refuted());
/// # Ok::<(), asyncmap_bff::ParseBffError>(())
/// ```
pub fn containment(candidate: &Expr, reference: &Expr, nvars: usize) -> Containment {
    if nvars <= EXHAUSTIVE_VAR_LIMIT {
        Containment::from_sweep(hazards_subset_exhaustive(candidate, reference, nvars))
    } else {
        wide_containment(candidate, reference, nvars)
    }
}

/// The rungs above the sweep, usable on any `nvars`: equal structures are
/// `Proven`; a [`product_estimate`] over [`FLATTEN_CAP`] is
/// `Unknown(FlattenCap)`; else both sides are flattened (Theorem 4.3) and
/// the exact static-1 condition [`static1_subset`] either fails,
/// `Refuted(Static1Escape)`, or holds, `Unknown(Static1Only)`.
pub fn wide_containment(candidate: &Expr, reference: &Expr, nvars: usize) -> Containment {
    if candidate == reference {
        return Containment::Proven;
    }
    if product_estimate(candidate) > FLATTEN_CAP || product_estimate(reference) > FLATTEN_CAP {
        return Containment::Unknown(Unknown::FlattenCap);
    }
    let cand = flatten(candidate, nvars).cover;
    let refr = flatten(reference, nvars).cover;
    if static1_subset(&cand, &refr) {
        Containment::Unknown(Unknown::Static1Only)
    } else {
        Containment::Refuted(Refutation::Static1Escape)
    }
}

/// Number of products (proper and vacuous) that hazard-preserving
/// distribution of `expr` produces, by arithmetic over its shape: Or sums
/// and And multiplies under even negations, the dual under odd; a
/// constant counts 1 iff true at its polarity. Saturating. Exact on
/// `flatten`'s normal form (`expr.to_nnf().simplify_assoc()`) and on
/// constant-free expressions; otherwise an upper bound, since absorbing
/// constants (`1 + x`, `0·x`) fold away before distribution.
pub fn product_estimate(expr: &Expr) -> u64 {
    fn go(e: &Expr, neg: bool) -> u64 {
        match e {
            Expr::Const(b) => u64::from(*b != neg),
            Expr::Var(_) => 1,
            Expr::Not(inner) => go(inner, !neg),
            Expr::And(es) if !neg => es.iter().fold(1u64, |p, e| p.saturating_mul(go(e, neg))),
            Expr::Or(es) if neg => es.iter().fold(1u64, |p, e| p.saturating_mul(go(e, neg))),
            Expr::And(es) | Expr::Or(es) => {
                es.iter().fold(0u64, |s, e| s.saturating_add(go(e, neg)))
            }
        }
    }
    go(expr, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::{VarId, VarTable};

    fn v(i: usize) -> Expr {
        Expr::Var(VarId(i))
    }

    #[test]
    fn product_estimate_matches_distribution() {
        let mut vars = VarTable::new();
        // (w + y')(x + y) distributes to 4 products (one vacuous).
        let e = Expr::parse("(w + y')*(x + y)", &mut vars).unwrap();
        assert_eq!(product_estimate(&e), 4);
        // (a*b + c)' → (a' + b')*c' → 2 products.
        let n = Expr::parse("(a*b + c)'", &mut vars).unwrap();
        assert_eq!(product_estimate(&n), 2);
        // Constants count by polarity: 0 adds no product, (0)' adds one.
        assert_eq!(product_estimate(&Expr::Const(false)), 0);
        assert_eq!(product_estimate(&Expr::Const(false).not()), 1);
    }

    #[test]
    fn wide_regrouping_is_proven_only_when_structurally_equal() {
        let terms: Vec<Expr> = (0..9).map(v).collect();
        let flat_or = Expr::Or(terms.clone());
        assert_eq!(containment(&flat_or, &flat_or, 9), Containment::Proven);
        let regrouped = Expr::Or(vec![
            Expr::Or(terms[..5].to_vec()),
            Expr::Or(terms[5..].to_vec()),
        ]);
        assert_eq!(
            containment(&regrouped, &flat_or, 9),
            Containment::Unknown(Unknown::Static1Only)
        );
    }

    #[test]
    fn wide_consensus_drop_is_a_static1_escape() {
        // Figure 3 plus six extra OR-ed leaves: 9 variables.
        let (a, b, c) = (v(0), v(1), v(2));
        let core = vec![
            Expr::And(vec![a.clone(), b.clone()]),
            Expr::And(vec![a.not(), c.clone()]),
        ];
        let extra: Vec<Expr> = (3..9).map(v).collect();
        let pruned = Expr::Or(core.iter().cloned().chain(extra.iter().cloned()).collect());
        let full = Expr::Or(
            core.into_iter()
                .chain([Expr::And(vec![b, c])])
                .chain(extra)
                .collect(),
        );
        assert_eq!(
            containment(&pruned, &full, 9),
            Containment::Refuted(Refutation::Static1Escape)
        );
        assert_eq!(
            containment(&full, &pruned, 9),
            Containment::Unknown(Unknown::Static1Only)
        );
    }

    #[test]
    fn over_the_cap_is_unknown() {
        // (x0 + x1)(x2 + x3)...(x24 + x25): 2^13 products.
        let big = Expr::And(
            (0..13)
                .map(|i| Expr::Or(vec![v(2 * i), v(2 * i + 1)]))
                .collect(),
        );
        assert!(product_estimate(&big) > FLATTEN_CAP);
        let other = Expr::Or(vec![big.clone(), Expr::Const(false)]);
        assert_eq!(
            wide_containment(&other, &big, 26),
            Containment::Unknown(Unknown::FlattenCap)
        );
    }
}
