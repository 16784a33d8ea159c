//! The workloads and the in-process pipeline they share.
//!
//! Each pipeline step is one public entry point of one crate, called in
//! the order the CLI calls them and wrapped in a span named after its
//! layer. With a disabled [`Tracer`] the same code is the untraced
//! baseline.

use crate::cli;
use crate::trace::Tracer;
use asyncmap::audit::{audit_equations, audit_equations_cached, check_spec, AuditCache};
use asyncmap::bench::{
    apply_edits, design_fingerprint, emit_design, emit_edits, generate, generate_edits,
    parse_edits, GenSpec,
};
use asyncmap::burst::BurstSpec;
use asyncmap::cube::Cover;
use asyncmap::fma::{analyze_design_cached, analyze_design_with_spec, FmaCache, FmaReport};
use asyncmap::library::Library;
use asyncmap::lint::{lint_mapped_design_cached, LintCache, LintReport};
use asyncmap::mapper::{render_report, to_verilog, EcoSession, MapStats};
use asyncmap::network::EquationSet;
use asyncmap::preflight::{
    preflight_blif, preflight_design, preflight_genlib, preflight_library, preflight_pair,
};
use asyncmap::prelude::{analyze_design, async_tmap, lint_mapped_design, MapOptions, MappedDesign};
use std::path::Path;
use std::time::{Duration, Instant};

/// The CLI stages, in the order a user runs them.
const STAGES: [&str; 5] = ["preflight", "map", "lint", "audit", "analyze"];

/// Gates of the generated design.
const GEN_GATES: usize = 10_000;
/// Length of the eco-loop's edit script: more than a block can use.
const ECO_SCRIPT_EDITS: usize = 400;
/// Cumulative edits of one eco-loop block at the least; more run while
/// the block's budget lasts. A run has two blocks, so p90 of 120 samples
/// or more has 12 beyond it.
const ECO_MIN_EDITS: usize = 60;
/// After this many edits, every block checks its stitched design against
/// a cold map and, at seed 7, the recorded reference.
const ECO_REFERENCE_EDITS: usize = 40;
/// The eco-loop re-qualifies every this many edits. Preflight of a
/// 10k-gate design takes about twice a whole edit round, so it is sampled
/// outside the round rather than run on every edit.
const PREFLIGHT_EVERY: usize = 10;
/// Edits of `table5-suite`'s remap probe, split evenly over the
/// designs (≥100, so p90 has 10 samples beyond it).
pub const PROBE_EDITS: usize = 120;

/// `map` fingerprints recorded at the benchmark's introduction: the fixed
/// suite, and the eco-loop's base and final stitched designs at seed 7.
const REFERENCE: &[(&str, &str)] = &[
    ("scsi", "40bac50000000000-4013eab97e5e44e6-2751-0"),
    ("abcs", "40a6ce0000000000-4011eab97e5e44e6-1130-0"),
    ("pe-send-ifc", "4085f00000000000-400959114b663e4a-208-210"),
    ("dme", "4061c00000000000-40008c447e99717e-46-76"),
    ("ctrl_like", "4048800000000000-401b999999999999-15-0"),
    ("gen10000-s7", "40cf200000000000-4001980258e57f8f-5966-0"),
    ("eco-loop-s7", "40cf238000000000-400212e3a093940a-5970-0"),
];

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table5Suite,
    EcoLoop,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Table5Suite, Workload::EcoLoop];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table5Suite => "table5-suite",
            Workload::EcoLoop => "eco-loop",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One (design, library) pair as the CLI takes it.
#[derive(Debug, Clone)]
pub struct Design {
    pub label: String,
    pub design: String,
    pub library: String,
}

/// Correctness gate: every checked operation counts as attempted, every
/// miss as failed.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Checks a fingerprint against the in-process expectation and, when
    /// one is recorded for `label`, the reference.
    pub fn fingerprint(
        &mut self,
        reference: &[(&str, &str)],
        label: &str,
        got: &str,
        expected: &str,
    ) {
        let recorded = reference.iter().find(|(l, _)| *l == label).map(|(_, f)| *f);
        self.check(got == expected && recorded.is_none_or(|r| r == got), || {
            format!("{label}: fingerprint {got}, expected {expected} (reference {recorded:?})")
        });
    }
}

pub fn fingerprint(design: &MappedDesign) -> String {
    let (area, delay, instances, rejects) = design_fingerprint(design);
    format!("{area:016x}-{delay:016x}-{instances}-{rejects}")
}

/// The workload's designs; [`write_inputs`] writes the generated ones.
/// Only the generated workload depends on `seed`.
pub fn designs(workload: Workload, seed: u64, work: &Path) -> Vec<Design> {
    let pair = |label: &str, design: &str, library: &str| Design {
        label: label.to_owned(),
        design: design.to_owned(),
        library: library.to_owned(),
    };
    if workload == Workload::Table5Suite {
        return vec![
            pair("scsi", "scsi", "lsi9k"),
            pair("abcs", "abcs", "lsi9k"),
            pair("pe-send-ifc", "pe-send-ifc", "actel"),
            pair("dme", "dme", "actel"),
            pair(
                "ctrl_like",
                "tests/fixtures/ctrl_like.blif",
                "tests/fixtures/mcnc_like.genlib",
            ),
        ];
    }
    vec![gen_design(&gen_spec(seed), work)]
}

fn gen_spec(seed: u64) -> GenSpec {
    GenSpec {
        target_gates: GEN_GATES,
        inputs: 16,
        seed,
    }
}

/// Writes the workload's generated inputs, if it has any.
pub fn write_inputs(workload: Workload, seed: u64, work: &Path) -> Result<(), String> {
    if workload == Workload::EcoLoop {
        gen_inputs(&gen_spec(seed), work, ECO_SCRIPT_EDITS)?;
    }
    Ok(())
}

/// The generated design's dump in `work`, on `lsi9k`.
fn gen_design(spec: &GenSpec, work: &Path) -> Design {
    let path = work.join(format!("{}.eqn", spec.name()));
    Design {
        label: spec.name(),
        design: path.to_string_lossy().into_owned(),
        library: "lsi9k".to_owned(),
    }
}

/// Writes a generated design dump, and its edit script when `edits > 0`,
/// and returns the design.
pub fn gen_inputs(spec: &GenSpec, work: &Path, edits: usize) -> Result<Design, String> {
    let eqs = generate(spec);
    let design = gen_design(spec, work);
    write(Path::new(&design.design), &emit_design(&eqs))?;
    if edits > 0 {
        let script = generate_edits(&eqs, edits, spec.seed ^ 0xEC0);
        write(Path::new(&edits_path(&design)), &emit_edits(&eqs, &script))?;
    }
    Ok(design)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The eco-loop's edit script, written next to its design dump.
fn edits_path(design: &Design) -> String {
    design.design.replace(".eqn", ".edits")
}

/// A design and library as the CLI loads them, library annotated.
pub struct Loaded {
    pub eqs: EquationSet,
    pub spec: Option<BurstSpec>,
    pub lib: Library,
}

/// Loads and annotates: what `setup_s` times.
pub fn load(t: &mut Tracer, d: &Design) -> Result<Loaded, String> {
    let mut lib = t.span("load.library", |_| asyncmap::load_library_auto(&d.library))?;
    t.span("library.annotate", |_| lib.annotate_hazards());
    let (eqs, spec) = t.span("load.design", |_| {
        asyncmap::load_design_with_spec(&d.design)
    })?;
    Ok(Loaded { eqs, spec, lib })
}

/// Records the mapper's counters and its phases as children of the
/// mapping span that just closed.
fn record_map(t: &mut Tracer, stats: &MapStats) {
    t.phase_children(&stats.phases);
    t.add("network.gates", stats.subject_gates);
    t.add("network.cones", stats.cones);
    t.add(
        "core.match_calls",
        stats.phases.count(asyncmap::mapper::MapPhase::Match) as usize,
    );
    t.add("core.npn_hits", stats.npn_hits);
    t.add("core.npn_lookups", stats.npn_hits + stats.npn_misses);
    t.add("core.hazard_cache_hits", stats.cache_hits);
    t.add("core.hazard_lookups", stats.cache_hits + stats.cache_misses);
    t.add("core.cut_truncations", stats.cut_truncations);
}

fn record_lint(t: &mut Tracer, report: &LintReport) {
    t.add("lint.cones", report.counters.cones);
    t.add("lint.cones_reused", report.counters.cones_reused);
}

fn record_fma(t: &mut Tracer, report: &FmaReport) {
    let c = &report.counters;
    t.add("fma.cones", c.cones);
    t.add("fma.cones_reused", c.cones_reused);
    t.add("fma.cones_exact", c.containment_exact);
    t.add("fma.cones_partial", c.containment_partial);
    t.add("fma.race_points", c.race_points);
}

fn record_audit(t: &mut Tracer, report: &asyncmap::audit::AuditReport) {
    let c = &report.counters;
    t.add("audit.certificates", c.num_certificates());
    t.add(
        "audit.certificates_reused",
        c.reused_steps + c.reused_equations + c.reused_flattens,
    );
}

/// `async_tmap` with CLI defaults, recorded as the `core.map` span.
pub fn map(t: &mut Tracer, eqs: &EquationSet, lib: &Library) -> Result<MappedDesign, String> {
    let design = t
        .span("core.map", |_| async_tmap(eqs, lib, &MapOptions::default()))
        .map_err(|e| e.to_string())?;
    record_map(t, &design.stats);
    Ok(design)
}

/// The mapped design's self-check, as the CLI's `map` runs it: function
/// equivalence and hazard containment per cone.
fn self_check(t: &mut Tracer, gate: &mut Gate, design: &MappedDesign, lib: &Library, what: &str) {
    let function_ok = t.span("core.verify_function", |_| design.verify_function(lib));
    let hazards_ok = t.span("core.verify_hazards", |_| design.verify_hazards(lib));
    gate.check(function_ok && hazards_ok, || {
        format!("{what}: self-check failed")
    });
}

/// The CLI stages on one design, in process: preflight, map with its
/// self-check and report, lint, audit, analyze.
pub fn pipeline(t: &mut Tracer, gate: &mut Gate, d: &Design) -> Result<(), String> {
    let loaded = load(t, d)?;
    let lib = &loaded.lib;
    let label = d.label.as_str();

    let mut pre = t.span("preflight.library", |_| -> Result<_, String> {
        if d.library.ends_with(".genlib") {
            let text = std::fs::read_to_string(&d.library).map_err(|e| e.to_string())?;
            let parsed =
                asyncmap::genlib::parse_genlib(&text, "genlib").map_err(|e| e.to_string())?;
            Ok(preflight_genlib(&parsed).0)
        } else {
            Ok(preflight_library(lib))
        }
    })?;
    let design_report = t.span("preflight.design", |_| -> Result<_, String> {
        if d.design.ends_with(".blif") {
            let text = std::fs::read_to_string(&d.design).map_err(|e| e.to_string())?;
            let net = asyncmap::blif::parse_blif(&text, "blif").map_err(|e| e.to_string())?;
            Ok(preflight_blif(&net).0)
        } else {
            Ok(preflight_design(&loaded.eqs))
        }
    })?;
    pre.merge(design_report);
    pre.merge(t.span("preflight.pair", |_| preflight_pair(&loaded.eqs, lib)));
    gate.check(pre.is_clean(), || format!("{label}: preflight findings"));

    let design = map(t, &loaded.eqs, lib)?;
    self_check(t, gate, &design, lib, label);
    let fp = t.span("core.export", |_| {
        std::hint::black_box(render_report(&design, lib));
        std::hint::black_box(to_verilog(&design, lib, "bench"));
        fingerprint(&design)
    });
    gate.fingerprint(REFERENCE, label, &fp, &fp);

    let lint = t.span("lint", |_| lint_mapped_design(&design, lib));
    record_lint(t, &lint);
    gate.check(lint.is_clean(), || format!("{label}: lint findings"));

    let mut audit = match &loaded.spec {
        Some(spec) => t.span("audit.spec", |_| check_spec(spec)),
        None => Default::default(),
    };
    audit.merge(t.span("audit.equations", |_| audit_equations(&loaded.eqs)));
    record_audit(t, &audit);
    gate.check(audit.is_clean(), || format!("{label}: audit findings"));

    let fma = t.span("fma", |_| match &loaded.spec {
        Some(spec) => analyze_design_with_spec(&design, lib, spec),
        None => analyze_design(&design, lib),
    });
    record_fma(t, &fma);
    gate.check(fma.is_clean(), || format!("{label}: analyze findings"));
    Ok(())
}

/// The remap probe of the CLI workloads: a base map of `d` in a fresh
/// `EcoSession`, then `edits` cumulative edits remapped one at a time.
/// Returns each remap's latency in seconds. The final stitched result
/// must match a cold map.
pub fn remap_probe(
    t: &mut Tracer,
    gate: &mut Gate,
    d: &Design,
    edits: usize,
    edit_seed: u64,
) -> Result<Vec<f64>, String> {
    let loaded = load(t, d)?;
    let edits = generate_edits(&loaded.eqs, edits, edit_seed);
    let mut session = EcoSession::new(&loaded.lib, MapOptions::default());
    let mut last = eco_remap(t, &mut session, &loaded.eqs)?;
    let mut edited = loaded.eqs.clone();
    let mut samples = Vec::new();
    for i in 0..edits.len() {
        edited = t.span("load.design", |_| apply_edits(&loaded.eqs, &edits[..=i]));
        let start = Instant::now();
        last = eco_remap(t, &mut session, &edited)?;
        samples.push(start.elapsed().as_secs_f64());
    }
    let cold = map(t, &edited, &loaded.lib)?;
    gate.fingerprint(&[], &d.label, &fingerprint(&last), &fingerprint(&cold));
    Ok(samples)
}

/// One incremental remap of `eqs` in `session`.
fn eco_remap(
    t: &mut Tracer,
    session: &mut EcoSession<'_>,
    eqs: &EquationSet,
) -> Result<MappedDesign, String> {
    let out = t
        .span("core.eco_remap", |_| session.map(eqs))
        .map_err(|e| e.to_string())?;
    record_map(t, &out.design.stats);
    t.add("core.eco_cones", out.eco.cones_total);
    t.add("core.eco_cones_reused", out.eco.cones_reused);
    Ok(out.design)
}

/// Stage times of one eco-loop edit, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EditTimes {
    pub map: f64,
    pub lint: f64,
    pub audit: f64,
    pub analyze: f64,
    /// The whole edit round: the four calls above.
    pub total: f64,
}

/// What eco-loop blocks measured; [`EcoLoop::lines`] and
/// [`EcoLoop::add_lines`] carry a block's results from the process that
/// ran it.
#[derive(Debug, Default, PartialEq)]
pub struct EcoLoop {
    pub setup: Vec<f64>,
    pub edits: Vec<EditTimes>,
    /// Re-qualification times of every [`PREFLIGHT_EVERY`]-th edited design.
    pub preflight: Vec<f64>,
    /// Cone verdicts the loop's sessions computed (not reused), and how
    /// many of them were left partial.
    pub verdicts: usize,
    pub partial: usize,
}

impl EcoLoop {
    /// One `key values...` line per sample.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for s in &self.setup {
            out += &format!("setup {s}\n");
        }
        for e in &self.edits {
            let EditTimes {
                map,
                lint,
                audit,
                analyze,
                total,
            } = e;
            out += &format!("edit {map} {lint} {audit} {analyze} {total}\n");
        }
        for p in &self.preflight {
            out += &format!("preflight {p}\n");
        }
        out + &format!("verdicts {} {}\n", self.verdicts, self.partial)
    }

    /// Adds the samples of [`EcoLoop::lines`] output to `self`.
    pub fn add_lines(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines() {
            let mut words = line.split(' ');
            let key = words.next().unwrap_or("");
            let nums: Vec<f64> = words
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("eco-loop block line {line:?}: {e}"))?;
            match (key, nums.as_slice()) {
                ("setup", &[s]) => self.setup.push(s),
                ("edit", &[map, lint, audit, analyze, total]) => self.edits.push(EditTimes {
                    map,
                    lint,
                    audit,
                    analyze,
                    total,
                }),
                ("preflight", &[p]) => self.preflight.push(p),
                ("verdicts", &[v, p]) => {
                    self.verdicts += v as usize;
                    self.partial += p as usize;
                }
                _ => return Err(format!("eco-loop block line {line:?} not understood")),
            }
        }
        Ok(())
    }
}

/// A warmed edit session: the ECO mapper and the verifier caches.
struct Session<'lib> {
    lib: &'lib Library,
    eco: EcoSession<'lib>,
    lint: LintCache,
    fma: FmaCache,
    audit: AuditCache,
    verdicts: usize,
    partial: usize,
}

impl<'lib> Session<'lib> {
    /// Base-maps the design, checks its fingerprint and runs the
    /// verifiers cold on it.
    fn warm(
        t: &mut Tracer,
        gate: &mut Gate,
        loaded: &'lib Loaded,
        label: &str,
    ) -> Result<Self, String> {
        let mut s = Session {
            lib: &loaded.lib,
            eco: EcoSession::new(&loaded.lib, MapOptions::default()),
            lint: LintCache::new(),
            fma: FmaCache::new(),
            audit: AuditCache::new(),
            verdicts: 0,
            partial: 0,
        };
        let base = eco_remap(t, &mut s.eco, &loaded.eqs)?;
        let fp = fingerprint(&base);
        gate.fingerprint(REFERENCE, label, &fp, &fp);
        s.verify(t, gate, &loaded.eqs, &base, "base");
        Ok(s)
    }

    /// The cached lint, analyze and audit passes on one (edited) design;
    /// returns their times in seconds.
    fn verify(
        &mut self,
        t: &mut Tracer,
        gate: &mut Gate,
        eqs: &EquationSet,
        design: &MappedDesign,
        what: &str,
    ) -> (f64, f64, f64) {
        let lib = self.lib;
        let start = Instant::now();
        let lint = t.span("lint", |_| {
            lint_mapped_design_cached(design, lib, &mut self.lint)
        });
        let lint_s = start.elapsed().as_secs_f64();
        record_lint(t, &lint);
        let start = Instant::now();
        let fma = t.span("fma", |_| analyze_design_cached(design, lib, &mut self.fma));
        let analyze_s = start.elapsed().as_secs_f64();
        record_fma(t, &fma);
        let start = Instant::now();
        let audit = t.span("audit.equations", |_| {
            audit_equations_cached(eqs, &mut self.audit)
        });
        let audit_s = start.elapsed().as_secs_f64();
        record_audit(t, &audit);
        let c = &fma.counters;
        self.verdicts += c.cones - c.cones_reused;
        self.partial += c.containment_partial;
        gate.check(
            lint.is_clean() && fma.is_clean() && audit.is_clean(),
            || format!("eco-loop {what}: verifier findings"),
        );
        (lint_s, analyze_s, audit_s)
    }
}

/// One eco-loop block: a timed set-up (load, annotate, base map, cache
/// warm-up), then the closed edit loop and the checks of its final
/// stitched design. Edits run while `budget`, counted from the block's
/// start, lasts, and at least [`ECO_MIN_EDITS`] of them.
pub fn eco_loop(
    t: &mut Tracer,
    gate: &mut Gate,
    d: &Design,
    budget: Duration,
) -> Result<EcoLoop, String> {
    let mut result = EcoLoop::default();
    let edits_file = edits_path(d);
    let edits_text =
        std::fs::read_to_string(&edits_file).map_err(|e| format!("{edits_file}: {e}"))?;
    let start = Instant::now();
    let loaded = load(t, d)?;
    let edits = parse_edits(&edits_text, &loaded.eqs.inputs);
    let mut s = Session::warm(t, gate, &loaded, &d.label)?;
    let setup = start.elapsed();
    result.setup.push(setup.as_secs_f64());
    // The final checks take about half a set-up; leave room for them.
    let until = (start + budget).checked_sub(setup / 2).unwrap_or(start);
    let label = d.label.replacen("gen10000", "eco-loop", 1);
    let (design, edited) = edit_loop(t, gate, &mut result, &mut s, &loaded, &edits, until, &label)?;
    (result.verdicts, result.partial) = (s.verdicts, s.partial);
    let lib = &loaded.lib;
    self_check(t, gate, &design, lib, "eco-loop final stitched design");
    stitched_matches_cold(t, gate, &[], &label, &design, &edited, lib)?;
    Ok(result)
}

/// Checks that a stitched design is the one a cold map of `edited`
/// gives, and the recorded reference when `reference` has one for `label`.
fn stitched_matches_cold(
    t: &mut Tracer,
    gate: &mut Gate,
    reference: &[(&str, &str)],
    label: &str,
    design: &MappedDesign,
    edited: &EquationSet,
    lib: &Library,
) -> Result<(), String> {
    let cold = map(t, edited, lib)?;
    gate.fingerprint(reference, label, &fingerprint(design), &fingerprint(&cold));
    Ok(())
}

/// The closed edit loop: edits while `until` has not passed, at least
/// [`ECO_MIN_EDITS`] and at most the script's. Returns the final stitched
/// design and the final edited equations.
#[allow(clippy::too_many_arguments)]
fn edit_loop(
    t: &mut Tracer,
    gate: &mut Gate,
    result: &mut EcoLoop,
    s: &mut Session<'_>,
    loaded: &Loaded,
    edits: &[(String, Cover)],
    until: Instant,
    label: &str,
) -> Result<(MappedDesign, EquationSet), String> {
    let min = ECO_MIN_EDITS.min(edits.len());
    let mut last = None;
    for i in 0..edits.len() {
        if i >= min && Instant::now() >= until {
            break;
        }
        let edited = t.span("load.design", |_| apply_edits(&loaded.eqs, &edits[..=i]));
        if i % PREFLIGHT_EVERY == 0 {
            let start = Instant::now();
            let mut pre = t.span("preflight.design", |_| preflight_design(&edited));
            pre.merge(t.span("preflight.pair", |_| preflight_pair(&edited, s.lib)));
            result.preflight.push(start.elapsed().as_secs_f64());
            gate.check(pre.is_clean(), || {
                format!("eco-loop edit {i}: preflight findings")
            });
        }
        let round = Instant::now();
        let design = eco_remap(t, &mut s.eco, &edited)?;
        let map = round.elapsed().as_secs_f64();
        let (lint, analyze, audit) = s.verify(t, gate, &edited, &design, &format!("edit {i}"));
        result.edits.push(EditTimes {
            map,
            lint,
            audit,
            analyze,
            total: round.elapsed().as_secs_f64(),
        });
        if i + 1 == ECO_REFERENCE_EDITS {
            stitched_matches_cold(t, gate, REFERENCE, label, &design, &edited, s.lib)?;
        }
        last = Some((design, edited));
    }
    last.ok_or_else(|| "eco-loop: no edits".to_owned())
}

/// What one pass over the designs measured.
#[derive(Debug, Default)]
pub struct CliPass {
    /// Wall seconds per stage, summed over designs.
    pub stage_s: [f64; 5],
    pub peak_rss_kb: u64,
    /// `analyze`'s cone count and partial verdicts, summed over designs.
    pub cones: usize,
    pub partial: usize,
}

/// Runs every CLI stage on `d` once, adds the times to `pass` and gates
/// each output; `expected` is the design's in-process fingerprint.
pub fn cli_stages(
    cli_path: &str,
    gate: &mut Gate,
    d: &Design,
    expected: &str,
    pass: &mut CliPass,
) -> Result<(), String> {
    let label = &d.label;
    for (i, stage) in STAGES.iter().enumerate() {
        let run = cli::run(cli_path, &[stage, &d.design, &d.library])?;
        pass.stage_s[i] += run.wall.as_secs_f64();
        pass.peak_rss_kb = pass.peak_rss_kb.max(run.peak_rss_kb);
        gate.check(run.code == Some(0), || {
            format!("{label}: `{stage}` exited with {:?}", run.code)
        });
        if *stage == "map" {
            let got = run
                .stdout
                .lines()
                .find_map(|l| l.strip_prefix("fingerprint: "))
                .unwrap_or("<none>");
            gate.fingerprint(REFERENCE, label, got, expected);
        } else {
            gate.check(zero_findings(&run.stdout), || {
                format!("{label}: `{stage}` reported findings")
            });
        }
        if *stage == "analyze" {
            let (cones, partial) = analyze_counts(&run.stdout).unwrap_or((0, 0));
            pass.cones += cones;
            pass.partial += partial;
        }
    }
    Ok(())
}

/// `true` when the output has at least one `N finding(s)` summary and
/// every one of them reads zero.
fn zero_findings(stdout: &str) -> bool {
    let counts: Vec<&str> = stdout
        .split(" finding(s)")
        .collect::<Vec<_>>()
        .split_last()
        .map(|(_, before)| {
            before
                .iter()
                .map(|s| s.rsplit([' ', '\n']).next().unwrap_or(""))
                .collect()
        })
        .unwrap_or_default();
    !counts.is_empty() && counts.iter().all(|c| *c == "0")
}

/// Parses `analyzed N cone(s), ... (P partial)` from `analyze` output.
fn analyze_counts(stdout: &str) -> Option<(usize, usize)> {
    let line = stdout.lines().find(|l| l.starts_with("analyzed "))?;
    let cones = line
        .strip_prefix("analyzed ")?
        .split(' ')
        .next()?
        .parse()
        .ok()?;
    let partial = line.rsplit('(').next()?.split(' ').next()?.parse().ok()?;
    Some((cones, partial))
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The length-weighted mean of `stat` over consecutive `window`-sample
/// stretches of `samples`, taken in the order they were measured. With
/// [`median`] as `stat` and a window of 1, the mean.
///
/// The host's speed switches between a fast and a slow state, each
/// lasting seconds. A median pooled over a run jumps from one state's
/// level to the other's when the run spends about half its time in each.
/// A windowed median moves with the share of time spent in each state
/// instead, and each window's median still drops a rare outlier.
pub fn windowed(samples: &[f64], window: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let weighted: f64 = samples
        .chunks(window)
        .map(|c| stat(c) * c.len() as f64)
        .sum();
    weighted / samples.len() as f64
}

/// Nearest-rank percentile `p` (0..=100) of a non-empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_parse() {
        assert!(zero_findings("lint: 0 finding(s) (0 error(s))\n"));
        assert!(zero_findings(
            "0 finding(s) (0 error(s)), 3 note(s)\nanalyzed 1 cone(s)"
        ));
        assert!(!zero_findings("audit: 0 finding(s)\nlint: 2 finding(s)\n"));
        assert!(!zero_findings("no summary at all\n"));
        let out = "analyzed 41 cone(s), 2751 instance(s): 22 exact boundary sweep(s), \
                   19 wide ladder run(s) (19 partial)";
        assert_eq!(analyze_counts(out), Some((41, 19)));
    }

    #[test]
    fn percentiles() {
        let s: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), 108.0);
        assert_eq!(median(&s), 60.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(windowed(&[3.0, 1.0, 2.0], 3, median), 2.0);
        assert_eq!(windowed(&[1.0, 2.0, 6.0], 1, median), 3.0);
        // A slow stretch weighs in by its share; the outlier is dropped.
        let run = [1.0, 1.0, 9.0, 1.5, 1.5, 1.5];
        assert_eq!(windowed(&run, 3, median), 1.25);
        assert_eq!(windowed(&run[..4], 3, median), 1.125);
        assert_eq!(windowed(&run, 3, |w| percentile(w, 90.0)), 5.25);
    }

    #[test]
    fn corrupted_reference_fails_the_gate() {
        let good = "40bac50000000000-4013eab97e5e44e6-2751-0";
        let mut gate = Gate::default();
        gate.fingerprint(REFERENCE, "scsi", good, good);
        assert_eq!((gate.attempted, gate.failed), (1, 0));
        let corrupted = [("scsi", "40bac50000000000-4013eab97e5e44e6-2751-1")];
        gate.fingerprint(&corrupted, "scsi", good, good);
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }
}
