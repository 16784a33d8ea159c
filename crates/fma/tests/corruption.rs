//! Corruption injection: every violation class the analyzer exists for
//! must be caught with its expected severity code when deliberately
//! introduced into a clean design (or its spec).
//!
//! * instance-graph cycles → `cycle.combinational`;
//! * forged spec bursts (the design no longer implements an edge) →
//!   `boundary.burst-mismatch`;
//! * a glitch-capable cover substituted for a hazard-free one →
//!   `boundary.containment` (narrow cone) or `boundary.static1-escape`
//!   (wide cone, where the mapper's self-check and lint must refuse it
//!   too).

use asyncmap_burst::{benchmark, benchmark_spec, BurstSpec};
use asyncmap_core::{async_tmap, ConeCover, Instance, MapOptions, MapStats, MappedDesign};
use asyncmap_cube::{Bits, Cover, VarTable};
use asyncmap_fma::{analyze_design, analyze_design_with_spec};
use asyncmap_library::{builtin, Library};
use asyncmap_network::{partition, EquationSet, GateOp, Network, SignalId};
use proptest::prelude::*;
use std::sync::LazyLock;

/// One mapped benchmark, shared by every generated case — corruption
/// operates on fresh copies.
static BASE: LazyLock<(MappedDesign, Library, BurstSpec)> = LazyLock::new(|| {
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let eqs = benchmark("scsi");
    let spec = benchmark_spec("scsi");
    let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
    (design, lib, spec)
});

fn copy_design(d: &MappedDesign) -> MappedDesign {
    MappedDesign {
        library_name: d.library_name.clone(),
        subject: d.subject.clone(),
        cones: d.cones.clone(),
        covers: d.covers.clone(),
        area: d.area,
        delay: d.delay,
        stats: MapStats::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn injected_cycles_are_classified(cover_pick in 0usize..4096, pin_pick in 0usize..4096) {
        let (base, lib, _) = &*BASE;
        let mut design = copy_design(base);
        let candidates: Vec<usize> = design
            .covers
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.instances.is_empty())
            .map(|(i, _)| i)
            .collect();
        let cover = &mut design.covers[candidates[cover_pick % candidates.len()]];
        // Every instance of a cover feeds its root instance (the last one),
        // so wiring any pin of any instance to the root's output closes a
        // combinational loop through the cell graph.
        let root_out = cover.instances.last().unwrap().output;
        let n = cover.instances.len();
        let inst = &mut cover.instances[pin_pick % n];
        let p = pin_pick / n % inst.inputs.len().max(1);
        inst.inputs[p] = root_out;
        let report = analyze_design(&design, lib);
        prop_assert!(
            report.findings.iter().any(|f| f.code == "cycle.combinational"),
            "cycle not classified:\n{}",
            report.render()
        );
    }

    #[test]
    fn forged_output_bursts_are_flagged(edge_pick in 0usize..4096, out_pick in 0usize..4096) {
        let (base, lib, spec) = &*BASE;
        let mut forged = spec.clone();
        let e = edge_pick % forged.edges.len();
        let o = out_pick % forged.output_names.len();
        let burst = &mut forged.edges[e].output_burst;
        burst.set(o, !burst.get(o));
        // A flip can make the spec itself inconsistent (reconvergent
        // states with clashing outputs); those cases are not analyzable
        // designs and are discarded.
        if asyncmap_burst::expand(&forged).is_err() {
            return Ok(());
        }
        let report = analyze_design_with_spec(base, lib, &forged);
        prop_assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "boundary.burst-mismatch"),
            "forged burst (edge {e}, output {o}) not flagged:\n{}",
            report.render()
        );
    }
}

/// Figure 3 with its consensus term, mapped hazard-free — then the
/// cover is swapped for a single MUX2 (`s·a + s'·b`): same function
/// (`ab + a'c ≡ ab + a'c + bc`), but the mux's two-cube structure has
/// the textbook static-1 hazard at `b = c = 1`. The boundary sweep must
/// refuse the substitution.
#[test]
fn glitch_capable_cover_is_flagged() {
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let vars = VarTable::from_names(["a", "b", "c"]);
    let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
    let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
    let base = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
    let clean = analyze_design(&base, &lib);
    assert!(clean.is_clean(), "{}", clean.render());

    // Locate MUX2 by truth table: f(s, a, b) = s·a + s'·b.
    let mux2 = lib
        .cells()
        .iter()
        .position(|c| {
            c.num_inputs() == 3
                && (0..8u32).all(|i| {
                    let mut pins = Bits::new(3);
                    for b in 0..3 {
                        pins.set(b, i >> b & 1 == 1);
                    }
                    let (s, a, b) = (pins.get(0), pins.get(1), pins.get(2));
                    c.bff().eval(&pins) == if s { a } else { b }
                })
        })
        .expect("LSI9K has a MUX2");

    let mut design = base;
    let out_sig = design
        .subject
        .outputs()
        .iter()
        .find(|(n, _)| n == "f")
        .expect("output f")
        .1;
    let cone_idx = design
        .cones
        .iter()
        .position(|c| c.root == out_sig)
        .expect("output cone");
    let leaf = |name: &str| {
        *design.cones[cone_idx]
            .leaves
            .iter()
            .find(|&&s| design.subject.name(s) == name)
            .unwrap_or_else(|| panic!("leaf {name}"))
    };
    let (a, b, c) = (leaf("a"), leaf("b"), leaf("c"));
    let root = design.cones[cone_idx].root;
    design.covers[cone_idx].instances = vec![Instance {
        cell_index: mux2,
        output: root,
        inputs: vec![a, b, c],
    }];

    let report = analyze_design(&design, &lib);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "boundary.containment"),
        "hazardous substitute cover not flagged:\n{}",
        report.render()
    );
}

/// Figure 3 widened past the exhaustive sweep: a hand-built 9-leaf cone
/// `f = (ab + a'c + bc) + ((d + e) + g) + ((h + i) + j)` in 2-input
/// gates. Covered gate for gate (INV, AND2, OR2 on the figure-3 part) it
/// keeps every product; with the figure-3 part collapsed into one MUX2
/// (`a·b + a'·c`) it computes the same function but drops the consensus
/// product `bc`, so the static-1 transition of `a` at `b = c = 1` can
/// glitch. The wide ladder must refute that cone in every checker: the
/// mapper's self-check, lint's whole-cone check and the analyzer.
#[test]
fn wide_cone_consensus_drop_is_refused_everywhere() {
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let cell = |name: &str| {
        lib.cells()
            .iter()
            .position(|c| c.name() == name)
            .unwrap_or_else(|| panic!("LSI9K has {name}"))
    };
    let mut net = Network::new();
    let [a, b, c, d, e, g, h, i, j] =
        ["a", "b", "c", "d", "e", "g", "h", "i", "j"].map(|n| net.add_input(n));
    let na = net.add_gate(GateOp::Inv, [a]);
    let t1 = net.add_gate(GateOp::And, [a, b]);
    let t2 = net.add_gate(GateOp::And, [na, c]);
    let t3 = net.add_gate(GateOp::And, [b, c]);
    let m1 = net.add_gate(GateOp::Or, [t1, t2]);
    let m = net.add_gate(GateOp::Or, [m1, t3]);
    let o1 = net.add_gate(GateOp::Or, [d, e]);
    let o2 = net.add_gate(GateOp::Or, [o1, g]);
    let p1 = net.add_gate(GateOp::Or, [h, i]);
    let p2 = net.add_gate(GateOp::Or, [p1, j]);
    let q = net.add_gate(GateOp::Or, [o2, p2]);
    let f = net.add_gate(GateOp::Or, [m, q]);
    net.mark_output("f", f);
    let cones = partition(&net);
    assert_eq!(cones.len(), 1);
    assert_eq!(cones[0].leaves.len(), 9);

    let inst = |name: &str, output: SignalId, inputs: &[SignalId]| Instance {
        cell_index: cell(name),
        output,
        inputs: inputs.to_vec(),
    };
    let design_with = |figure3: Vec<Instance>| {
        let mut instances = figure3;
        instances.extend([
            inst("OR3", o2, &[d, e, g]),
            inst("OR3", p2, &[h, i, j]),
            inst("OR3", f, &[m, o2, p2]),
        ]);
        let area = instances
            .iter()
            .map(|x| lib.cells()[x.cell_index].area())
            .sum();
        MappedDesign {
            library_name: lib.name().to_owned(),
            subject: net.clone(),
            cones: cones.clone(),
            covers: vec![ConeCover {
                root: f,
                instances,
                area,
                cut_truncations: 0,
            }],
            area,
            delay: 0.0,
            stats: MapStats::default(),
        }
    };

    let faithful = design_with(vec![
        inst("INV", na, &[a]),
        inst("AND2", t1, &[a, b]),
        inst("AND2", t2, &[na, c]),
        inst("AND2", t3, &[b, c]),
        inst("OR2", m1, &[t1, t2]),
        inst("OR2", m, &[m1, t3]),
    ]);
    assert!(faithful.verify_function(&lib));
    assert!(faithful.verify_hazards(&lib));
    let lint = asyncmap_lint::lint_mapped_design(&faithful, &lib);
    assert!(lint.is_clean(), "{}", lint.render());
    let report = analyze_design(&faithful, &lib);
    assert!(report.is_clean(), "{}", report.render());

    let pruned = design_with(vec![inst("MUX2", m, &[a, b, c])]);
    assert!(pruned.verify_function(&lib));
    assert!(
        !pruned.verify_hazards(&lib),
        "self-check passed a wide cone that dropped its consensus product"
    );
    let lint = asyncmap_lint::lint_mapped_design(&pruned, &lib);
    assert!(
        lint.findings
            .iter()
            .any(|x| x.code == "theorem32.cone-containment"),
        "lint missed the wide-cone escape:\n{}",
        lint.render()
    );
    let report = analyze_design(&pruned, &lib);
    assert!(
        report
            .findings
            .iter()
            .any(|x| x.code == "boundary.static1-escape"),
        "analyzer missed the wide-cone escape:\n{}",
        report.render()
    );
}
