//! Property tests: the paper's fast hazard algorithms against brute-force
//! oracles and the eight-valued waveform algebra on random small functions.

use asyncmap_bff::{flatten, Expr};
use asyncmap_cube::{Cover, Cube, Phase, VarId};
use asyncmap_hazard::oracle::{
    brute_mic_dynamic_transitions, brute_static1_transitions, index_bits, is_static1_induced,
};
use asyncmap_hazard::{
    analyze_expr, containment, find_mic_dyn_haz_2level, has_static_hazard,
    hazards_subset_exhaustive, is_static_1_hazard_free, product_estimate, repair_static1,
    static1_subset, static_1_analysis, static_1_complete, wave_eval, wide_containment, Containment,
    Hazard,
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
    fn arb_cover()(cubes in prop::collection::vec(arb_cube(), 1..6)) -> Cover {
        Cover::from_cubes(NVARS, cubes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn static1_complete_agrees_with_brute_force(f in arb_cover()) {
        let brute = brute_static1_transitions(&f);
        prop_assert_eq!(is_static_1_hazard_free(&f), brute.is_empty());
        // Every brute-hazardous span lies inside some reported hazard span.
        let spans: Vec<Cube> = static_1_complete(&f)
            .into_iter()
            .map(|h| match h { Hazard::Static1 { span } => span, _ => unreachable!() })
            .collect();
        for (a, b) in brute {
            let span = Cube::minterm(&index_bits(NVARS, a))
                .supercube(&Cube::minterm(&index_bits(NVARS, b)));
            prop_assert!(
                spans.iter().any(|s| s.contains(&span)),
                "uncaptured static-1 span {:?}", span
            );
        }
    }

    #[test]
    fn static1_single_pass_is_sound(f in arb_cover()) {
        // Every span the paper's single pass reports is truly uncovered.
        for h in static_1_analysis(&f) {
            let Hazard::Static1 { span } = h else { unreachable!() };
            prop_assert!(f.covers_cube(&span));
            prop_assert!(!f.single_cube_contains(&span));
        }
    }

    #[test]
    fn static1_matches_wave_oracle(f in arb_cover()) {
        // The complete static-1 report agrees per-transition with the
        // waveform algebra on the two-level structure.
        let expr = Expr::from_cover(&f);
        let brute = brute_static1_transitions(&f);
        for a in 0..(1usize << NVARS) {
            for b in (a + 1)..(1usize << NVARS) {
                let (ba, bb) = (index_bits(NVARS, a), index_bits(NVARS, b));
                if !f.eval(&ba) || !f.eval(&bb) {
                    continue;
                }
                let span = Cube::minterm(&ba).supercube(&Cube::minterm(&bb));
                if !f.covers_cube(&span) {
                    continue; // function hazard
                }
                let wave_hz = wave_eval(&expr, &ba, &bb).is_static_hazard();
                prop_assert_eq!(wave_hz, brute.contains(&(a, b)),
                    "wave vs brute mismatch on {}→{}", a, b);
                prop_assert_eq!(wave_hz, has_static_hazard(&expr, &ba, &bb),
                    "wave vs ternary mismatch on {}→{}", a, b);
            }
        }
    }

    #[test]
    fn mic_dynamic_descriptors_are_sound(f in arb_cover()) {
        // Every (α, β) pair inside a descriptor is hazardous per the brute
        // Theorem-4.1 oracle (restricted to function-hazard-free pairs).
        let brute = brute_mic_dynamic_transitions(&f);
        for h in find_mic_dyn_haz_2level(&f) {
            let Hazard::DynamicMic { zero_end, one_end, .. } = h else { unreachable!() };
            for alpha in zero_end.minterms() {
                for beta in one_end.minterms() {
                    let a = to_index(&alpha);
                    let b = to_index(&beta);
                    if asyncmap_hazard::dynamic_function_hazard_free(&f, &alpha, &beta) {
                        prop_assert!(brute.contains(&(a, b)),
                            "descriptor pair {}→{} not hazardous", a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn mic_dynamic_complete_modulo_static1(f in arb_cover()) {
        // Every brute-hazardous dynamic transition *in the neighborhood the
        // paper's procedure examines* (endpoints within distance 1 of a
        // cube intersection) is either captured by a descriptor's
        // transition space or induced by a static-1 hazard (Example 4.2.3).
        // Outside that neighborhood the published procedure can miss
        // hazards — see `dynamic2l::tests::published_procedure_gap`.
        let descriptors = find_mic_dyn_haz_2level(&f);
        let intersections = asyncmap_hazard::irredundant_intersections(&f);
        for (a, b) in brute_mic_dynamic_transitions(&f) {
            let (ba, bb) = (index_bits(NVARS, a), index_bits(NVARS, b));
            if is_static1_induced(&f, &ba, &bb) {
                continue;
            }
            let near = intersections.iter().any(|c| {
                c.distance(&Cube::minterm(&ba)) <= 1 && c.distance(&Cube::minterm(&bb)) <= 1
            });
            if !near {
                continue;
            }
            let space = Cube::minterm(&ba).supercube(&Cube::minterm(&bb));
            let captured = descriptors.iter().any(|h| {
                let Hazard::DynamicMic { space: s, .. } = h else { return false };
                s.intersect(&space).is_some()
            });
            prop_assert!(captured, "transition {}→{} not captured", a, b);
        }
    }

    #[test]
    fn analyze_expr_hazard_free_iff_wave_clean(f in arb_cover()) {
        // A structure is reported hazard-free iff no function-hazard-free
        // transition can glitch under the waveform oracle.
        let expr = Expr::from_cover(&f);
        let report = analyze_expr(&expr, NVARS);
        let mut wave_dirty = false;
        'outer: for a in 0..(1usize << NVARS) {
            for b in 0..(1usize << NVARS) {
                if a == b { continue; }
                let (ba, bb) = (index_bits(NVARS, a), index_bits(NVARS, b));
                if !asyncmap_hazard::transition_function_hazard_free(&f, &ba, &bb) {
                    continue;
                }
                if wave_eval(&expr, &ba, &bb).hazard {
                    wave_dirty = true;
                    break 'outer;
                }
            }
        }
        prop_assert_eq!(!report.is_hazard_free(), wave_dirty,
            "report: {}", report.summary());
    }

    #[test]
    fn static1_subset_matches_transition_semantics(f in arb_cover(), g in arb_cover()) {
        // static1_subset(candidate=f, reference=g) iff every 1-1
        // transition hazard-free in g is hazard-free in f — checked only
        // when f and g denote the same function.
        if f.equivalent(&g) {
            let claim = static1_subset(&f, &g);
            let brute_f = brute_static1_transitions(&f);
            let brute_g = brute_static1_transitions(&g);
            let semantic = brute_f.iter().all(|p| brute_g.contains(p));
            prop_assert_eq!(claim, semantic);
        }
    }

    #[test]
    fn exhaustive_subset_is_reflexive_and_transitive_with_self(f in arb_cover()) {
        let expr = Expr::from_cover(&f);
        prop_assert!(hazards_subset_exhaustive(&expr, &expr, NVARS));
    }
}

/// Two structures of `f`'s function: its two-level form and, by `pick`,
/// the same products regrouped into two nested sums split at `split`, or
/// the consensus-completed (static-1 repaired) cover.
fn same_function_pair(f: &Cover, split: usize, pick: bool) -> (Expr, Expr) {
    let two_level = Expr::from_cover(f);
    let other = if pick {
        Expr::from_cover(&repair_static1(f).cover)
    } else {
        match &two_level {
            Expr::Or(terms) if terms.len() >= 2 => {
                let k = 1 + split % (terms.len() - 1);
                Expr::Or(vec![
                    Expr::Or(terms[..k].to_vec()),
                    Expr::Or(terms[k..].to_vec()),
                ])
            }
            other => other.clone(),
        }
    };
    (two_level, other)
}

/// A random expression over `NVARS` variables with constants, negations
/// and empty or nested sums and products, decoded from `bytes`.
fn decode_expr(bytes: &mut impl Iterator<Item = u8>, depth: usize) -> Expr {
    let b = bytes.next().unwrap_or(0);
    let leaf = |b: u8| match b % 6 {
        4 => Expr::Const(true),
        5 => Expr::Const(false),
        v => Expr::Var(VarId(v as usize % NVARS)),
    };
    if depth == 0 {
        return leaf(b >> 2);
    }
    match b % 4 {
        0 => leaf(b >> 2),
        1 => decode_expr(bytes, depth - 1).not(),
        op => {
            let arity = usize::from(bytes.next().unwrap_or(0) % 4);
            let kids = (0..arity).map(|_| decode_expr(bytes, depth - 1)).collect();
            if op == 2 {
                Expr::And(kids)
            } else {
                Expr::Or(kids)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn containment_ladder_is_sound(f in arb_cover(), split in 0usize..8, pick in any::<bool>()) {
        // Every rung of the wide ladder agrees with the exact sweep where
        // it commits, and the oracle is the sweep on narrow supports.
        let (a, b) = same_function_pair(&f, split, pick);
        for (cand, refr) in [(&a, &b), (&b, &a)] {
            let exact = hazards_subset_exhaustive(cand, refr, NVARS);
            match wide_containment(cand, refr, NVARS) {
                Containment::Proven => prop_assert!(exact, "wide ladder proved a refuted pair"),
                Containment::Refuted(_) => {
                    prop_assert!(!exact, "wide ladder refuted a contained pair")
                }
                Containment::Unknown(_) => {}
            }
            prop_assert_eq!(containment(cand, refr, NVARS), Containment::from_sweep(exact));
        }
    }

    #[test]
    fn product_estimate_counts_flattened_products(bytes in prop::collection::vec(any::<u8>(), 1..48)) {
        // Exact on the normal form `flatten` distributes — which is what
        // the audit's flatten replay (`flatten.count-mismatch`) compares
        // against — and on constant-free expressions. Elsewhere an
        // absorbing constant (`1 + x`, `0 * x`) folds away before
        // distribution, so the estimate is an upper bound: the flatten cap
        // never lets a larger flattening through.
        let e = decode_expr(&mut bytes.into_iter(), 4);
        let flat = flatten(&e, NVARS);
        let produced = (flat.cover.len() + flat.vacuous.len()) as u64;
        prop_assert_eq!(product_estimate(&e.to_nnf().simplify_assoc()), produced, "expression {:?}", e);
        prop_assert!(product_estimate(&e) >= produced, "expression {:?}", e);
        if !has_const(&e) {
            prop_assert_eq!(product_estimate(&e), produced, "expression {:?}", e);
        }
    }
}

/// `true` when `e` holds a constant, written or as an empty sum or product.
fn has_const(e: &Expr) -> bool {
    match e {
        Expr::Const(_) => true,
        Expr::Var(_) => false,
        Expr::Not(inner) => has_const(inner),
        Expr::And(es) | Expr::Or(es) => es.is_empty() || es.iter().any(has_const),
    }
}

fn to_index(bits: &asyncmap_cube::Bits) -> usize {
    (0..NVARS).fold(0usize, |acc, v| acc | (usize::from(bits.get(v)) << v))
}
