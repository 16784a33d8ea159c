//! End-to-end and per-layer benchmark of `asyncmap`.
//!
//! ```text
//! bash perfbench/run.sh --workload <table5-suite|eco-loop>
//!                       --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times what a user waits for: the CLI subcommands
//! as a user runs them (`table5-suite`) or the public
//! `EcoSession` and verifier calls of an edit loop (`eco-loop`), and
//! prints the end-to-end metrics. With `--trace 1` it runs the same work
//! in process, untraced and with a span around each public entry point,
//! and prints the per-layer metrics. Every run gates the
//! outputs for correctness. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for why each workload and metric exists.

mod cli;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{self_times, Tracer};
use workload::{
    cli_stages, designs, eco_loop, fingerprint, load, map, median, percentile, pipeline,
    remap_probe, windowed, write_inputs, CliPass, Design, EcoLoop, Gate, Workload, PROBE_EDITS,
};

/// End-to-end metrics, printed with `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("preflight_s", "s"),
    ("map_s", "s"),
    ("lint_s", "s"),
    ("audit_s", "s"),
    ("analyze_s", "s"),
    ("eco_edit_p50_s", "s"),
    ("eco_edit_p90_s", "s"),
    ("analyze_undecided_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. `*_s`
/// values are span self times; a layer a workload does not exercise
/// reads zero.
const PER_LAYER: [(&str, &str); 38] = [
    ("load.design_s", "s"),
    ("load.library_s", "s"),
    ("library.annotate_s", "s"),
    ("network.decomp_s", "s"),
    ("network.partition_s", "s"),
    ("network.gates", "count"),
    ("network.cones", "count"),
    ("core.map_s", "s"),
    ("core.cluster_enum_s", "s"),
    ("core.match_s", "s"),
    ("core.cover_select_s", "s"),
    ("core.hazard_check_s", "s"),
    ("core.match_calls", "count"),
    ("core.npn_hit_rate", "share"),
    ("core.hazard_cache_hit_rate", "share"),
    ("core.cut_truncations", "count"),
    ("core.verify_function_s", "s"),
    ("core.verify_hazards_s", "s"),
    ("core.export_s", "s"),
    ("core.eco_remap_s", "s"),
    ("core.eco_reused_share", "share"),
    ("preflight.library_s", "s"),
    ("preflight.design_s", "s"),
    ("preflight.pair_s", "s"),
    ("lint.s", "s"),
    ("lint.reused_share", "share"),
    ("audit.equations_s", "s"),
    ("audit.spec_s", "s"),
    ("audit.certificates", "count"),
    ("audit.reused_share", "share"),
    ("fma.s", "s"),
    ("fma.cones_exact", "count"),
    ("fma.cones_partial", "count"),
    ("fma.race_points", "count"),
    ("fma.reused_share", "share"),
    ("trace.coverage", "share"),
    ("trace.overhead_share", "share"),
    ("failed_ops_share", "share"),
];

/// Timed set-ups before each design's CLI stages, so a pass of five
/// designs gives 10 samples.
const SETUP_REPS: usize = 2;
/// Consecutive eco-loop edits per window of [`windowed`]: about a second
/// of edits.
const EDIT_WINDOW: usize = 10;
/// The eco-loop's blocks. Each gets an equal share of what is left of
/// `--seconds`; its set-up includes the cold verification of the base
/// design, seconds each.
const ECO_BLOCKS: usize = 2;
/// CLI passes per run at the least; more run while `--seconds` lasts.
const MIN_PASSES: usize = 1;
/// The share of the traced wall time the spans' self times must cover.
/// Below it, the traced run counts as a failed operation.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: String,
    work: PathBuf,
    /// Run one block of the workload, of about `seconds` on `eco-loop`,
    /// and print its samples (see [`block`]).
    block: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut cli, mut work, mut block) =
        (None, 7, 10.0, false, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(f64::is_finite(seconds) && seconds >= 0.0) {
                    return Err(format!("--seconds {value:?} is not a duration"));
                }
            }
            "--trace" => trace = flag_bool(&flag, &value)?,
            "--block" => block = flag_bool(&flag, &value)?,
            "--cli" => cli = Some(value),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        cli: cli.ok_or("--cli is required")?,
        work: work.ok_or("--work is required")?,
        block,
    })
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, not {value:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let args = parse_args(std::env::args().skip(1))?;
    // CLI defaults: no verifier hooks, one thread per stage. Children
    // inherit this environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ASYNCMAP_") {
            std::env::remove_var(key);
        }
    }
    if !std::path::Path::new(&args.cli).is_file() {
        return Err(format!("CLI binary {} not found", args.cli));
    }
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let designs = designs(args.workload, args.seed, &args.work);
    if args.block {
        return block(&designs, args.workload, args.seconds);
    }
    write_inputs(args.workload, args.seed, &args.work)?;
    let mut gate = Gate::default();
    let (values, declared) = if args.trace {
        (per_layer(&args, &designs, &mut gate)?, &PER_LAYER[..])
    } else {
        (end_to_end(&args, &designs, &mut gate)?, &END_TO_END[..])
    };
    result_json(&gate, &values, declared)
}

/// The remap probe's edit seed. The fixed suite ignores `--seed`.
const PROBE_EDIT_SEED: u64 = 0xEC0;

/// One block of in-process work, run in a process of its own by
/// [`run_block`]: one set-up of every design on `table5-suite`, one
/// eco-loop block of about `seconds` on `eco-loop`. The default `HashMap`
/// hasher is seeded afresh in each process, and in-process timings can
/// differ from one process to the next, so a run takes these samples from
/// several processes. Prints the samples, then the gate's counts as the
/// last line.
fn block(designs: &[Design], workload: Workload, seconds: f64) -> Result<String, String> {
    let quiet = &mut Tracer::new(false);
    let mut gate = Gate::default();
    let lines = if workload == Workload::EcoLoop {
        let budget = Duration::from_secs_f64(seconds);
        eco_loop(quiet, &mut gate, &designs[0], budget)?.lines()
    } else {
        let start = Instant::now();
        for d in designs {
            std::hint::black_box(load(quiet, d)?);
        }
        format!("setup {}\n", start.elapsed().as_secs_f64())
    };
    Ok(format!("{lines}gate {} {}", gate.attempted, gate.failed))
}

/// Runs [`block`] with a budget of `seconds` in a child process and
/// waits for it. Adds the child's gate counts to `gate`; returns its
/// sample lines and peak RSS in KiB.
fn run_block(args: &Args, gate: &mut Gate, seconds: f64) -> Result<(String, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (seed, work) = (args.seed.to_string(), args.work.to_string_lossy());
    let seconds = seconds.to_string();
    let name = args.workload.name();
    let run = cli::run(
        &exe.to_string_lossy(),
        &[
            "--workload",
            name,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
            "--cli",
            &args.cli,
            "--work",
            &work,
            "--block",
            "1",
        ],
    )?;
    if run.code != Some(0) {
        return Err(format!("{name} block exited with {:?}", run.code));
    }
    let out = run.stdout.trim_end();
    let (lines, counts) = out.rsplit_once('\n').unwrap_or(("", out));
    let counts: Vec<u64> = counts
        .strip_prefix("gate ")
        .map(|c| c.split(' ').filter_map(|n| n.parse().ok()).collect())
        .unwrap_or_default();
    let [attempted, failed] = counts[..] else {
        return Err(format!("{name} block printed no gate counts"));
    };
    gate.attempted += attempted;
    gate.failed += failed;
    Ok((lines.to_owned(), run.peak_rss_kb))
}

fn end_to_end(
    args: &Args,
    designs: &[Design],
    gate: &mut Gate,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let quiet = &mut Tracer::new(false);
    if args.workload == Workload::EcoLoop {
        let (mut eco, mut peak_rss_kb) = (EcoLoop::default(), 0);
        for left in (1..=ECO_BLOCKS).rev() {
            let share = deadline.saturating_duration_since(Instant::now()) / left as u32;
            let (lines, rss) = run_block(args, gate, share.as_secs_f64())?;
            eco.add_lines(&lines)?;
            peak_rss_kb = peak_rss_kb.max(rss);
        }
        return Ok(eco_values(&eco, peak_rss_kb));
    }
    let mut expected = Vec::new();
    for d in designs {
        let loaded = load(quiet, d)?;
        expected.push(fingerprint(&map(quiet, &loaded.eqs, &loaded.lib)?));
    }
    // Each pass runs, per design, the set-ups and the remap probe just
    // before the CLI stages, so every metric's samples are spread over
    // the whole run rather than taken in one stretch of a machine whose
    // speed drifts.
    let per_design = PROBE_EDITS.div_ceil(designs.len());
    let (mut setup, mut probe, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let mut pass = CliPass::default();
        for (d, fp) in designs.iter().zip(&expected) {
            for _ in 0..SETUP_REPS {
                let (line, _) = run_block(args, gate, 0.0)?;
                let secs = line.strip_prefix("setup ").and_then(|s| s.parse().ok());
                setup.push(secs.ok_or(format!("set-up block printed {line:?}"))?);
            }
            probe.extend(remap_probe(quiet, gate, d, per_design, PROBE_EDIT_SEED)?);
            cli_stages(&args.cli, gate, d, fp, &mut pass)?;
        }
        passes.push(pass);
    }
    Ok(cli_values(&setup, &passes, &probe))
}

/// `table5-suite`'s metrics. A timing sampled once a pass is the mean over
/// the passes; one sampled many times a pass is the mean over the passes
/// of each pass's median or p90 (see [`windowed`]).
fn cli_values(setup: &[f64], passes: &[CliPass], probe: &[f64]) -> BTreeMap<&'static str, f64> {
    let per_pass = |samples: &[f64], stat: fn(&[f64]) -> f64| {
        windowed(samples, (samples.len() / passes.len()).max(1), stat)
    };
    let stage = |i: usize| {
        let times: Vec<f64> = passes.iter().map(|p| p.stage_s[i]).collect();
        windowed(&times, 1, median)
    };
    let first = &passes[0];
    BTreeMap::from([
        ("setup_s", per_pass(setup, median)),
        ("preflight_s", stage(0)),
        ("map_s", stage(1)),
        ("lint_s", stage(2)),
        ("audit_s", stage(3)),
        ("analyze_s", stage(4)),
        ("eco_edit_p50_s", per_pass(probe, median)),
        ("eco_edit_p90_s", per_pass(probe, p90)),
        (
            "analyze_undecided_share",
            share(first.partial as f64, first.cones as f64),
        ),
        (
            "peak_rss_mb",
            passes.iter().map(|p| p.peak_rss_kb).max().unwrap_or(0) as f64 / 1024.0,
        ),
    ])
}

/// `eco-loop`'s metrics. Per-edit timings are taken over windows of
/// [`EDIT_WINDOW`] edits (see [`windowed`]); preflight, sampled
/// every few edits, is the mean; p90 is over all edits.
fn eco_values(eco: &EcoLoop, peak_rss_kb: u64) -> BTreeMap<&'static str, f64> {
    let each = |f: fn(&workload::EditTimes) -> f64| eco.edits.iter().map(f).collect::<Vec<_>>();
    let totals = each(|e| e.total);
    BTreeMap::from([
        ("setup_s", median(&eco.setup)),
        ("preflight_s", windowed(&eco.preflight, 1, median)),
        ("map_s", windowed(&each(|e| e.map), EDIT_WINDOW, median)),
        ("lint_s", windowed(&each(|e| e.lint), EDIT_WINDOW, median)),
        ("audit_s", windowed(&each(|e| e.audit), EDIT_WINDOW, median)),
        (
            "analyze_s",
            windowed(&each(|e| e.analyze), EDIT_WINDOW, median),
        ),
        ("eco_edit_p50_s", windowed(&totals, EDIT_WINDOW, median)),
        ("eco_edit_p90_s", p90(&totals)),
        (
            "analyze_undecided_share",
            share(eco.partial as f64, eco.verdicts as f64),
        ),
        ("peak_rss_mb", peak_rss_kb as f64 / 1024.0),
    ])
}

fn p90(samples: &[f64]) -> f64 {
    percentile(samples, 90.0)
}

/// `a / b`, or 0 when nothing was counted.
fn share(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The workload's in-process work: every stage on every design plus the
/// remap probe, or one eco-loop block of the fewest edits.
fn in_process(
    t: &mut Tracer,
    gate: &mut Gate,
    args: &Args,
    designs: &[Design],
) -> Result<(), String> {
    if args.workload == Workload::EcoLoop {
        return eco_loop(t, gate, &designs[0], Duration::ZERO).map(drop);
    }
    for d in designs {
        pipeline(t, gate, d)?;
        let per_design = PROBE_EDITS.div_ceil(designs.len());
        remap_probe(t, gate, d, per_design, PROBE_EDIT_SEED)?;
    }
    Ok(())
}

fn per_layer(
    args: &Args,
    designs: &[Design],
    gate: &mut Gate,
) -> Result<BTreeMap<&'static str, f64>, String> {
    // An untimed warm-up pass pays the process's one-time costs (the
    // preflight class sweep behind a `OnceLock`, first-touch page faults,
    // allocator growth), so the timed passes are comparable. Then come
    // pairs of an untraced and a traced pass, alternating which goes
    // first, while one more still ends within `--seconds`; there is at
    // least one. The overhead is the median over the pairs. The layer
    // metrics are the first traced pass's.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    in_process(&mut Tracer::new(false), gate, args, designs)?;
    let (mut overheads, mut first_traced, mut last) = (Vec::new(), None, Duration::ZERO);
    while overheads.is_empty() || Instant::now() + last <= deadline {
        let pair = Instant::now();
        let traced_first = overheads.len() % 2 == 1;
        let mut wall = [0.0; 2];
        for traced in [traced_first, !traced_first] {
            let mut t = Tracer::new(traced);
            in_process(&mut t, gate, args, designs)?;
            wall[usize::from(traced)] = t.elapsed().as_secs_f64();
            if traced && first_traced.is_none() {
                first_traced = Some((t, wall[1]));
            }
        }
        overheads.push((wall[1] - wall[0]) / wall[0]);
        last = pair.elapsed();
    }
    let (traced, traced_wall) = first_traced.expect("one pair ran");

    let spans_path = args.work.join(format!(
        "trace-{}-s{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans_path, trace::to_json_lines(traced.spans()))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!("perfbench: spans written to {}", spans_path.display());

    let mut values = layer_values(&traced, traced_wall);
    coverage_gate(gate, values["trace.coverage"]);
    values.insert("trace.overhead_share", median(&overheads));
    values.insert(
        "failed_ops_share",
        share(gate.failed as f64, gate.attempted as f64),
    );
    Ok(values)
}

/// Fails the traced run when its spans leave more than 5% of its wall
/// time unaccounted for.
fn coverage_gate(gate: &mut Gate, coverage: f64) {
    gate.check(coverage >= MIN_COVERAGE, || {
        format!("trace.coverage {coverage:.4} is below {MIN_COVERAGE}")
    });
}

/// Self times and counters of a traced run, keyed by metric name.
fn layer_values(t: &Tracer, wall: f64) -> BTreeMap<&'static str, f64> {
    let self_s = self_times(t.spans());
    let mut values = BTreeMap::new();
    for (name, _) in PER_LAYER {
        if let Some(span) = name.strip_suffix("_s").or(name.strip_suffix(".s")) {
            values.insert(name, self_s.get(span).copied().unwrap_or(0.0));
        }
    }
    let c = |name| t.counter(name);
    for name in [
        "network.gates",
        "network.cones",
        "core.match_calls",
        "core.cut_truncations",
        "audit.certificates",
        "fma.cones_exact",
        "fma.cones_partial",
        "fma.race_points",
    ] {
        values.insert(name, c(name));
    }
    values.insert(
        "core.npn_hit_rate",
        share(c("core.npn_hits"), c("core.npn_lookups")),
    );
    values.insert(
        "core.hazard_cache_hit_rate",
        share(c("core.hazard_cache_hits"), c("core.hazard_lookups")),
    );
    values.insert(
        "core.eco_reused_share",
        share(c("core.eco_cones_reused"), c("core.eco_cones")),
    );
    values.insert(
        "lint.reused_share",
        share(c("lint.cones_reused"), c("lint.cones")),
    );
    values.insert(
        "audit.reused_share",
        share(c("audit.certificates_reused"), c("audit.certificates")),
    );
    values.insert(
        "fma.reused_share",
        share(c("fma.cones_reused"), c("fma.cones")),
    );
    values.insert("trace.coverage", self_s.values().sum::<f64>() / wall);
    values
}

/// The result line. Fails unless the measured metrics are exactly the
/// declared ones, each a finite number.
fn result_json(
    gate: &Gate,
    values: &BTreeMap<&'static str, f64>,
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = values
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0 && gate.attempted > 0,
        gate.attempted,
        gate.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect();
        let e2e: Vec<String> = names(&END_TO_END);
        let layers: Vec<String> = names(&PER_LAYER);
        assert_eq!(benchmark_json_names("end_to_end"), e2e);
        assert_eq!(benchmark_json_names("per_layer"), layers);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(benchmark_json_names("workloads"), workloads);
    }

    #[test]
    fn a_missing_metric_fails_the_result() {
        let gate = Gate {
            attempted: 1,
            failed: 0,
        };
        let mut values: BTreeMap<&str, f64> = END_TO_END.iter().map(|(n, _)| (*n, 1.0)).collect();
        assert!(result_json(&gate, &values, &END_TO_END).is_ok());
        values.remove("lint_s");
        assert!(result_json(&gate, &values, &END_TO_END).is_err());
    }

    #[test]
    fn cli_workload_values_cover_every_end_to_end_metric() {
        let pass = CliPass {
            stage_s: [0.1, 0.2, 0.3, 0.4, 0.5],
            peak_rss_kb: 2048,
            cones: 10,
            partial: 4,
        };
        let values = cli_values(&[0.5, 0.4], &[pass], &[0.01; 100]);
        let gate = Gate {
            attempted: 5,
            failed: 0,
        };
        let line = result_json(&gate, &values, &END_TO_END).expect("every metric measured");
        assert!(line.starts_with("{\"correct\": true"));
    }

    /// The fixture pair, as a small stand-in for the fixed suite.
    fn fixture() -> Design {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/fixtures");
        Design {
            label: "ctrl_like".into(),
            design: format!("{dir}/ctrl_like.blif"),
            library: format!("{dir}/mcnc_like.genlib"),
        }
    }

    #[test]
    fn traced_cli_workload_emits_every_layer_metric() {
        let mut gate = Gate::default();
        let mut t = Tracer::new(true);
        pipeline(&mut t, &mut gate, &fixture()).expect("pipeline runs");
        remap_probe(&mut t, &mut gate, &fixture(), 24, 0xEC0).expect("probe runs");
        assert_eq!(gate.failed, 0);
        let wall = t.elapsed().as_secs_f64();
        let mut values = layer_values(&t, wall);
        values.insert("trace.overhead_share", 0.0);
        values.insert("failed_ops_share", 0.0);
        result_json(&gate, &values, &PER_LAYER).expect("every layer metric measured");
        for layer in [
            "core.map_s",
            "lint.s",
            "fma.s",
            "preflight.pair_s",
            "core.eco_remap_s",
        ] {
            assert!(values[layer] > 0.0, "{layer} not timed");
        }
        assert!(values["trace.coverage"] > 0.5 && values["trace.coverage"] <= 1.0);
    }

    #[test]
    fn low_trace_coverage_fails_the_gate() {
        let mut gate = Gate::default();
        coverage_gate(&mut gate, 0.99);
        assert_eq!((gate.attempted, gate.failed), (1, 0));
        coverage_gate(&mut gate, 0.90);
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn eco_loop_emits_every_metric_and_gates_clean() {
        let work = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/test-work-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        let spec = asyncmap::bench::GenSpec {
            target_gates: 400,
            inputs: 8,
            seed: 3,
        };
        let d = workload::gen_inputs(&spec, &work, 12).unwrap();
        let mut gate = Gate::default();
        let mut t = Tracer::new(true);
        let eco = eco_loop(&mut t, &mut gate, &d, Duration::ZERO).unwrap();
        std::fs::remove_dir_all(&work).unwrap();
        assert_eq!(gate.failed, 0);
        assert_eq!((eco.setup.len(), eco.edits.len()), (1, 12));
        assert_eq!(eco.preflight.len(), 2);
        let mut carried = EcoLoop::default();
        carried.add_lines(&eco.lines()).unwrap();
        assert_eq!(
            carried, eco,
            "a block's samples survive the trip between processes"
        );
        let values = eco_values(&eco, 1024);
        result_json(&gate, &values, &END_TO_END).expect("every metric measured");
        assert!(values["eco_edit_p50_s"] > 0.0 && values["map_s"] > 0.0);
        let wall = t.elapsed().as_secs_f64();
        let layers = layer_values(&t, wall);
        assert!(
            layers["core.eco_reused_share"] > 0.5,
            "edits reuse most cones"
        );
    }
}
