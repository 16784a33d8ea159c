//! Property test for the incremental (ECO) remapping loop: after any
//! sequence of random edit batches, a persistent [`EcoSession`] must
//! produce a design fingerprint-identical to mapping the edited equations
//! cold, and the stitched output must pass the reuse-aware lint and audit
//! passes — the two external checkers that share no code with the mapper.
//! The warm audit must also report exactly what a cold audit of the same
//! equations reports, and replay flattens only for cones the edit changed.

use asyncmap::bench::{apply_edits, design_fingerprint, generate, generate_edits, GenSpec};
use asyncmap::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn eco_remap_matches_cold_map_across_edit_sequences(
        gates in 150usize..400,
        gen_seed in 0u64..1000,
        edit_seeds in prop::collection::vec(any::<u64>(), 1..4),
        edit_count in 1usize..6,
    ) {
        let mut spec = GenSpec::new(gates);
        spec.seed = gen_seed;
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let opts = MapOptions {
            threads: 1,
            ..MapOptions::default()
        };

        let mut current = generate(&spec);
        let mut session = EcoSession::new(&lib, opts.clone());
        session.map(&current).expect("base map");
        let mut lint_cache = asyncmap::lint::LintCache::new();
        let mut audit_cache = asyncmap::audit::AuditCache::new();
        let base_audit = asyncmap::audit::audit_equations_cached(&current, &mut audit_cache);
        prop_assert!(base_audit.is_clean(), "{}", base_audit.render());

        for seed in edit_seeds {
            let edits = generate_edits(&current, edit_count, seed);
            current = apply_edits(&current, &edits);

            let out = session.map(&current).expect("eco remap");
            let cold = async_tmap(&current, &lib, &opts).expect("cold map");
            prop_assert_eq!(
                design_fingerprint(&out.design),
                design_fingerprint(&cold),
                "eco remap diverged from cold map after {} edit(s)",
                edits.len()
            );
            prop_assert_eq!(
                out.eco.cones_reused + out.eco.cones_remapped,
                out.eco.cones_total
            );

            let lint =
                asyncmap::lint::lint_mapped_design_cached(&out.design, &lib, &mut lint_cache);
            prop_assert!(lint.is_clean(), "{}", lint.render());
            let audit = asyncmap::audit::audit_equations_cached(&current, &mut audit_cache);
            prop_assert!(audit.is_clean(), "{}", audit.render());
            let cold_audit = asyncmap::audit::audit_equations(&current);
            // Severity, code, path and message of every diagnostic, in
            // discovery order.
            let diagnostics = |r: &asyncmap::audit::AuditReport| {
                [&r.findings, &r.notes].map(|g| g.iter().map(|f| f.to_string()).collect::<Vec<_>>())
            };
            prop_assert_eq!(diagnostics(&audit), diagnostics(&cold_audit));
            prop_assert_eq!(
                audit.counters.num_certificates(),
                cold_audit.counters.num_certificates()
            );
            prop_assert_eq!(
                audit.counters.hazard_partial,
                cold_audit.counters.hazard_partial
            );
            prop_assert!(
                audit.counters.flatten_traces - audit.counters.reused_flattens
                    <= out.eco.cones_remapped,
                "{} flatten replay(s) for {} remapped cone(s)",
                audit.counters.flatten_traces - audit.counters.reused_flattens,
                out.eco.cones_remapped
            );
        }
    }
}
