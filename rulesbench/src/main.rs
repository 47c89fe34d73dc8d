//! `rulesbench`: time from the pipeline call to mined design rules, on
//! three workloads, with a traced per-layer split.
//!
//! ```text
//! rulesbench [--workload spmv-mcts-paper|halo-mcts-deep|spmv-rules-warm|all]
//!            [--seed 213] [--seconds 10] [--trace 0|1]
//! ```
//!
//! `--trace 0` times untraced passes of `dr_core::run_pipeline_stored`
//! and prints the end-to-end metrics; `--trace 1` alternates untraced
//! and traced passes and prints the per-layer metrics. Every pass is
//! checked (see [`gate`]): against the run's first untraced pass, so a
//! `--trace 1` run also proves traced ≡ untraced, and at the default
//! seed against the pins. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when any pass failed.

mod gate;
mod spans;
mod stats;
mod traced;
mod workload;

use gate::{shipped_pin, Gate, DEFAULT_SEED};
use stats::{median, percentile, windows, Summary};
use std::process::ExitCode;
use std::time::Instant;
use traced::{traced_pass, Traced};
use workload::{open_store, ratio, untraced_pass, Spec, StoreUse, Untraced, WorkDir, WORKLOADS};

/// Set-ups are repeated between the passes until their total time is
/// `SETUP_SHARE` of the passes' time, so that they sample the same
/// stretch of the run as the passes; a run makes at least
/// `SETUP_MIN_REPS`. `setup_s` is their `FLOOR_PERMILLE` percentile, for
/// the reason given below.
const SETUP_SHARE: f64 = 0.1;
const SETUP_MIN_REPS: usize = 5;

/// On a shared host a pass runs at one of two speeds, up to 1.8x apart,
/// which switch every few seconds and whose mix drifts over minutes with
/// other tenants' load. Interference only adds time. Passes shorter than
/// `SHORT_PASS_S` each see one speed: `rules_s` is the `FLOOR_PERMILLE`
/// percentile of their times (and `impls_per_s` the mirror percentile of
/// their rates), the floor that the least-disturbed passes reach, which
/// holds while the mix drifts and the median jumps between the two
/// speeds. Longer passes each average over both speeds, and too few fit
/// in a run to estimate a floor: `rules_s` is then the median over
/// `WINDOWS` windows of about equal wall time of the mean pass time in
/// each.
const SHORT_PASS_S: f64 = 0.5;
const FLOOR_PERMILLE: u64 = 10;
const WINDOWS: usize = 3;

/// Minimum untraced passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Removes every `DR_*` variable from this process's environment, so
/// library-side knobs (`DR_THREADS`, `DR_FAULTS`, `DR_SEARCH`, ...) cannot
/// change what is measured. Returns the removed names.
fn isolate_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DR_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// `git describe` of the working tree, or `unknown` outside a git
/// checkout.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

struct RunOutput {
    gate: Gate,
    metrics: Vec<Metric>,
    /// Human-readable self-time table of the traced passes (empty for
    /// `--trace 0`).
    split: Vec<String>,
}

fn run_workload(spec: &Spec, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    let work = WorkDir::new(spec.name).map_err(|e| format!("cannot create work dir: {e}"))?;
    let cold_fingerprint = match spec.store {
        StoreUse::Warm => Some(workload::fill_store(
            spec,
            &spec.scenario(),
            open_store(&work.store_dir())?,
        )?),
        _ => None,
    };
    let mut held = spec.set_up(&work)?;
    let mut setup_s = vec![held.setup_s];
    let mut open_s: Vec<f64> = held.open_s.into_iter().collect();

    let pin = (spec.seed == DEFAULT_SEED)
        .then(|| shipped_pin(spec.name))
        .transpose()?;
    let mut gate = Gate::new(pin, cold_fingerprint);
    let mut untraced: Vec<Untraced> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let start = Instant::now();
    let (mut passes_s, mut setups_s) = (0.0, 0.0);
    loop {
        let t0 = Instant::now();
        for is_traced in [false, true].into_iter().take(1 + trace as usize) {
            if spec.store == StoreUse::Fresh {
                held.store = Some(work.fresh_store()?);
            }
            if is_traced {
                let r = traced_pass(spec, &held.sc, held.store.clone());
                gate.check(
                    "traced",
                    r.as_ref().map(|t| t.outcome).map_err(Clone::clone),
                );
                traced.extend(r.ok());
            } else {
                let r = untraced_pass(spec, &held.sc, held.store.clone());
                gate.check(
                    "untraced",
                    r.as_ref().map(|u| u.outcome).map_err(Clone::clone),
                );
                untraced.extend(r.ok());
            }
        }
        passes_s += t0.elapsed().as_secs_f64();
        let done = gate.attempted as usize >= MIN_PASSES * (1 + trace as usize);
        if gate.failed > 0 || (done && start.elapsed().as_secs_f64() >= seconds) {
            break;
        }
        // Each set-up replaces the held one, which is dropped first, so
        // `peak_rss_mb` still counts one set-up plus the passes.
        while setups_s < SETUP_SHARE * passes_s {
            drop(held);
            held = spec.set_up(&work)?;
            setups_s += held.setup_s;
            setup_s.push(held.setup_s);
            open_s.extend(held.open_s);
        }
    }
    while setup_s.len() < SETUP_MIN_REPS {
        drop(held);
        held = spec.set_up(&work)?;
        setup_s.push(held.setup_s);
        open_s.extend(held.open_s);
    }
    let peak_rss = peak_rss_mb();
    drop(held);

    let metrics = if trace {
        layer_metrics(&untraced, &traced, &open_s)
    } else {
        let secs: Vec<f64> = untraced.iter().map(|u| u.rules_s).collect();
        let rules = Summary::of(&secs);
        let (rules_s, impls_per_s, how, impls_how) = if rules.median < SHORT_PASS_S {
            let rates: Vec<f64> = untraced
                .iter()
                .map(|u| u.records as f64 / u.explore_s)
                .collect();
            (
                percentile(&secs, FLOOR_PERMILLE),
                percentile(&rates, 1000 - FLOOR_PERMILLE),
                format!("p{} of passes", FLOOR_PERMILLE as f64 / 10.0),
                format!("p{} of pass rates", (1000 - FLOOR_PERMILLE) as f64 / 10.0),
            )
        } else {
            let (mut mean_s, mut impls) = (Vec::new(), Vec::new());
            for w in windows(&secs, WINDOWS) {
                let us = &untraced[w];
                mean_s.push(us.iter().map(|u| u.rules_s).sum::<f64>() / us.len() as f64);
                let explore_s: f64 = us.iter().map(|u| u.explore_s).sum();
                impls.push(us.iter().map(|u| u.records).sum::<usize>() as f64 / explore_s);
            }
            let how = format!("median of {} window means {mean_s:.4?}", mean_s.len());
            let impls_how = format!("median of {} window rates {impls:.1?}", impls.len());
            (median(&mean_s), median(&impls), how, impls_how)
        };
        let mut m = vec![
            metric("rules_s", rules_s, "s"),
            metric("rules_s_tail", rules.tail, "s"),
            metric("impls_per_s", impls_per_s, "1/s"),
            metric("setup_s", percentile(&setup_s, FLOOR_PERMILLE), "s"),
            metric("peak_rss_mb", peak_rss, "MiB"),
        ];
        m[0].note = format!(
            "{how}; n={} passes, per-pass median {:.4}",
            rules.n, rules.median
        );
        if rules.n <= 20 {
            m[0].note += &format!(": {secs:.4?}");
        }
        m[1].note = format!("{} of n={} passes", rules.label(), rules.n);
        m[2].note = impls_how;
        m[3].note = format!(
            "p{} of {} set-ups, median {:.6}",
            FLOOR_PERMILLE as f64 / 10.0,
            setup_s.len(),
            median(&setup_s)
        );
        m
    };
    let split = self_time_split(&traced);
    Ok(RunOutput {
        gate,
        metrics,
        split,
    })
}

/// Median over the traced passes of the self time of spans named `name`
/// (0 for a pass without such spans).
fn median_self_s(traced: &[Traced], name: &str) -> f64 {
    let per_pass: Vec<f64> = traced
        .iter()
        .map(|t| t.layers.get(name).map_or(0.0, |l| l.self_s))
        .collect();
    median(&per_pass)
}

/// Every span name's median self time over the traced passes, largest
/// first, with its share of the median traced `rules_s`.
fn self_time_split(traced: &[Traced]) -> Vec<String> {
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    let total = median(&traced.iter().map(|t| t.rules_s).collect::<Vec<_>>());
    let mut rows: Vec<(&str, f64)> = first
        .layers
        .keys()
        .map(|name| (name.as_str(), median_self_s(traced, name)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.into_iter()
        .map(|(name, s)| format!("{name:<14} {s:>12.6} s {:>6.2}%", 100.0 * s / total))
        .collect()
}

fn layer_metrics(untraced: &[Untraced], traced: &[Traced], open_s: &[f64]) -> Vec<Metric> {
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    let c = &first.outcome.counters;
    let u = untraced.first().copied();
    let self_s = |name: &str| median_self_s(traced, name);
    let protocol_s = self_s("sim.protocol");
    let memo_lookups = first.memo_hits + first.memo_misses;
    let eval_us: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.eval_s.iter().map(|s| s * 1e6))
        .collect();
    let eval = Summary::of(&eval_us);
    let traced_rules = median(&traced.iter().map(|t| t.rules_s).collect::<Vec<_>>());
    let untraced_rules = median(&untraced.iter().map(|u| u.rules_s).collect::<Vec<_>>());
    let mut m = vec![
        metric("sim.protocol_s", protocol_s, "s"),
        metric(
            "sim.ns_per_instruction",
            protocol_s * 1e9 / c.instructions.max(1) as f64,
            "ns",
        ),
        metric("sim.samples", c.samples as f64, "count"),
        metric("sim.instructions", c.instructions as f64, "count"),
        metric(
            "sim.samples_per_impl",
            ratio(c.samples, first.simulated),
            "count",
        ),
        metric("sim.compile_s", self_s("sim.compile"), "s"),
        metric(
            "sim.memo_hit_ratio",
            ratio(first.memo_hits, memo_lookups),
            "ratio",
        ),
        metric("sim.memo_lookups", memo_lookups as f64, "count"),
        metric("sim.noise_tables", first.noise_tables as f64, "count"),
        metric("dag.lower_s", self_s("dag.lower"), "s"),
        metric("mcts.self_s", self_s("explore"), "s"),
        metric(
            "mcts.tree_nodes",
            u.and_then(|u| u.outcome.counters.tree_nodes).unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "mcts.new_record_ratio",
            u.map_or(0.0, |u| u.new_record_ratio),
            "ratio",
        ),
        metric("ml.train_s", self_s("train"), "s"),
        metric("ml.cart_fits", c.cart_fits as f64, "count"),
        metric("ml.label_s", self_s("label"), "s"),
        metric("ml.featurize_s", self_s("featurize"), "s"),
        metric("ml.rules_s", self_s("rules"), "s"),
        metric("ml.features", u.map_or(0, |u| u.features) as f64, "count"),
        metric("ml.classes", first.outcome.classes as f64, "count"),
        metric("ml.rulesets", first.outcome.rulesets as f64, "count"),
        metric("lint.schedule_s", self_s("lint"), "s"),
        metric(
            "lint.space_s",
            self_s("lint.space") + self_s("lint.topology"),
            "s",
        ),
        metric("lint.hb_expansions", c.hb_expansions as f64, "count"),
        metric("store.self_s", self_s("store"), "s"),
        metric("store.hits", c.hits as f64, "count"),
        metric(
            "store.hit_ratio",
            u.map_or(0.0, |u| u.store_hit_ratio),
            "ratio",
        ),
        metric("store.appended", c.appended as f64, "count"),
        metric("store.open_s", median(open_s), "s"),
        metric("eval.p50_us", eval.median, "us"),
        metric("eval.tail_us", eval.tail, "us"),
        metric("trace.overhead_s", traced_rules - untraced_rules, "s"),
    ];
    for x in &mut m {
        x.note = match x.name {
            "sim.memo_hit_ratio" => format!("base {memo_lookups} lookups"),
            "eval.p50_us" => format!("median of n={} calls", eval.n),
            "eval.tail_us" => format!("{} of n={} calls", eval.label(), eval.n),
            "trace.overhead_s" => format!(
                "traced {traced_rules:.6} s (n={}) - untraced {untraced_rules:.6} s (n={})",
                traced.len(),
                untraced.len()
            ),
            name if name.ends_with("_s") && name != "store.open_s" => {
                format!("median self time of n={} traced passes", traced.len())
            }
            _ => String::new(),
        };
    }
    m
}

/// Prints one workload's human-readable lines and its JSON result line.
fn report(spec: &Spec, trace: bool, out: &RunOutput) {
    let header = if trace { "per-layer" } else { "end-to-end" };
    println!("# {} seed={} {header}", spec.name, spec.seed);
    for m in &out.metrics {
        println!("  {:<24} {:>16} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    if !out.split.is_empty() {
        println!("# self time by span: median over traced passes, share of traced rules_s");
        for line in &out.split {
            println!("  {line}");
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                dr_obs::json::number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.gate.failed == 0,
        out.gate.attempted,
        out.gate.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let cleared = isolate_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rulesbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    println!(
        "# rulesbench git={} nproc={} threads=1 cleared_env=[{}]",
        git_describe(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cleared.join(",")
    );
    let mut ok = true;
    for name in names {
        let Some(spec) = Spec::new(name, args.seed) else {
            eprintln!("rulesbench: unknown workload {name} (known: {WORKLOADS:?}, all)");
            return ExitCode::from(2);
        };
        match run_workload(&spec, args.seconds, args.trace) {
            Ok(out) => {
                report(&spec, args.trace, &out);
                ok &= out.gate.failed == 0;
            }
            Err(e) => {
                eprintln!("rulesbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
