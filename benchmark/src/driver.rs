//! The parent process: one fresh child per repetition, aggregation,
//! checks, the printed report, `metrics.json`, `trace.json`, `--selfcheck`
//! and the one-line result the repo's benchmark driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::catalog::{self, Metric};
use crate::{ladder, slices, Args, Values};

/// Share of `--seconds` the untraced repetitions of a traced run may use;
/// the traced repetition, the ladder and the probes take the rest.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.4;

struct ChildOut {
    values: Values,
    /// Host ns of every slice of the timed section.
    slices: Vec<u64>,
    failures: Vec<String>,
}

/// Run one child to completion and parse its `name value` lines.
fn spawn_child(args: &Args, what: &str, trace_part: Option<(&Path, u32)>) -> ChildOut {
    let mut out = ChildOut {
        values: Values::new(),
        slices: Vec::new(),
        failures: Vec::new(),
    };
    let mut cmd = match std::env::current_exe() {
        Ok(exe) => Command::new(exe),
        Err(e) => {
            out.failures.push(format!("locating own binary: {e}"));
            return out;
        }
    };
    cmd.args(["--child", what, "--seed", &args.seed.to_string()]);
    if let Some((path, pid)) = trace_part {
        cmd.arg("--trace-out")
            .arg(path)
            .args(["--pid", &pid.to_string()]);
    }
    // `output` waits for the child, so none outlives this call
    let done = match cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
        Ok(done) => done,
        Err(e) => {
            out.failures.push(format!("starting child {what}: {e}"));
            return out;
        }
    };
    for line in String::from_utf8_lossy(&done.stdout).lines() {
        if let Some(why) = line.strip_prefix("CHECK_FAIL ") {
            out.failures.push(why.to_string());
        } else if let Some(slices) = line.strip_prefix("SLICES") {
            out.slices = slices
                .split_whitespace()
                .filter_map(|s| s.parse().ok())
                .collect();
        } else if let Some((name, value)) = line.split_once(' ') {
            match value.parse::<f64>() {
                Ok(v) => {
                    out.values.insert(name.to_string(), v);
                }
                Err(_) => out.failures.push(format!("unparsable child line {line:?}")),
            }
        }
    }
    if !done.status.success() && out.failures.is_empty() {
        out.failures
            .push(format!("child {what} ended with {}", done.status));
    }
    out
}

/// Aggregated result of one workload.
pub struct Summary {
    pub name: String,
    pub reps: usize,
    /// Exact values as reported (identical in every repetition); host
    /// values as the minimum over repetitions, `host_wall_s` with every
    /// slice at its fastest over the repetitions.
    pub values: Values,
    /// (min, median, max) over repetitions of every host value.
    pub host_range: BTreeMap<String, (f64, f64, f64)>,
    pub failures: Vec<String>,
}

impl Summary {
    fn attempted(&self) -> u64 {
        self.values
            .get("ops_attempted")
            .map_or(1, |v| *v as u64)
            .max(1)
    }
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fold repetitions into one set of values; exact values that differ
/// between repetitions are a correctness failure.
fn aggregate(
    reps: &[ChildOut],
    failures: &mut Vec<String>,
) -> (Values, BTreeMap<String, (f64, f64, f64)>) {
    let kinds = catalog::index();
    let mut values = Values::new();
    let mut host_range = BTreeMap::new();
    let Some(first) = reps.first() else {
        return (values, host_range);
    };
    for (name, &v0) in &first.values {
        let mut all: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.values.get(name).copied())
            .collect();
        if all.len() != reps.len() {
            failures.push(format!("{name} missing from a repetition"));
        }
        if catalog::is_host(&kinds, name) {
            let med = median(&mut all);
            let (min, max) = (all[0], all[all.len() - 1]);
            host_range.insert(name.clone(), (min, med, max));
            values.insert(name.clone(), min);
        } else {
            if let Some(other) = all.iter().find(|v| v.to_bits() != v0.to_bits()) {
                failures.push(format!(
                    "{name} differs between repetitions of one seed: {v0:?} vs {other:?}"
                ));
            }
            values.insert(name.clone(), v0);
        }
    }
    // the timed section, slice by slice at its fastest repetition
    let slices: Vec<&[u64]> = reps.iter().map(|r| r.slices.as_slice()).collect();
    match slices::fastest_sum(&slices) {
        Some(ns) => {
            values.insert("host_wall_s".into(), ns as f64 / 1e9);
        }
        None => failures.push("repetitions of one seed cut the timed section differently".into()),
    }
    (values, host_range)
}

/// Measure one workload: untraced repetitions, then (with `--trace`) one
/// traced repetition whose exact values must match the untraced ones.
fn measure(args: &Args, name: &str, pid: u32) -> Summary {
    let started = Instant::now();
    let budget = args.seconds.map(|s| {
        if args.trace {
            s * TRACED_RUN_UNTRACED_SHARE
        } else {
            s
        }
    });
    let mut reps = Vec::new();
    loop {
        reps.push(spawn_child(args, name, None));
        let more = match budget {
            Some(secs) => started.elapsed().as_secs_f64() < secs,
            None => reps.len() < args.reps as usize,
        };
        if !more || !reps.last().is_some_and(|r| r.failures.is_empty()) {
            break;
        }
    }
    let mut failures: Vec<String> = reps
        .iter()
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    let (mut values, host_range) = aggregate(&reps, &mut failures);

    if args.trace {
        let part = args.out.join(format!("trace.{name}.events"));
        let traced = spawn_child(args, name, Some((&part, pid)));
        failures.extend(traced.failures.iter().map(|f| format!("traced run: {f}")));
        let kinds = catalog::index();
        for (k, v) in &traced.values {
            // allocations differ by design: the traced run stores spans
            if !catalog::is_host(&kinds, k)
                && k != "host_allocs_per_op"
                && values.get(k).map(|u| u.to_bits()) != Some(v.to_bits())
            {
                failures.push(format!(
                    "{k}: traced run {v:?} differs from untraced {:?}",
                    values.get(k)
                ));
            }
        }
        // whole repetition against whole repetition
        if let (Some(t), Some((u, _, _))) = (
            traced.values.get("host_wall_s"),
            host_range.get("host_wall_s"),
        ) {
            values.insert("trace.overhead_frac".into(), t / u - 1.0);
        }
    }
    let (attempted, completed) = (
        values.get("ops_attempted").copied().unwrap_or(0.0),
        values.get("ops_completed").copied().unwrap_or(0.0),
    );
    if attempted > 0.0 {
        values.insert("ops_ok_frac".into(), completed / attempted);
        values.insert("ops_failed_frac".into(), 1.0 - completed / attempted);
    }
    Summary {
        name: name.to_string(),
        reps: reps.len(),
        values,
        host_range,
        failures,
    }
}

fn print_metric(m: &Metric, s: &Summary) {
    let Some(v) = s.values.get(&m.name) else {
        return;
    };
    let mut line = format!("    {:<34} {:>16.6} {:<9}", m.name, v, m.unit);
    if let Some((min, med, max)) = s.host_range.get(&m.name) {
        let _ = write!(line, " min {min:.6}  median {med:.6}  max {max:.6}");
    }
    if let Some(b) = m.bound {
        let _ = write!(line, "  [bound {:.0} %]", b * 100.0);
    }
    println!("{line}");
}

fn print_summary(s: &Summary, seed: u64) {
    println!(
        "\n== {}  (seed {seed:#x}, {} repetitions) ==",
        s.name, s.reps
    );
    println!("  end-to-end");
    for m in catalog::end_to_end() {
        print_metric(&m, s);
    }
    println!("  results of this workload family");
    for m in catalog::family_results() {
        print_metric(&m, s);
    }
    // the counts behind the ratios above, open-loop tallies per tenant
    let counts = |k: &str| {
        [
            "ops_attempted",
            "ops_completed",
            "latency_samples",
            "generator_late_ns",
        ]
        .contains(&k)
            || k.ends_with(".arrivals")
            || k.ends_with(".completed")
    };
    for (k, v) in s.values.iter().filter(|(k, _)| counts(k)) {
        println!("    {k:<34} {v:>16.0}");
    }
    println!("  per layer, over the timed section");
    for m in catalog::layer_counts() {
        print_metric(&m, s);
    }
    if let Some(v) = s.values.get("trace.overhead_frac") {
        println!("    {:<34} {v:>16.6} fraction", "trace.overhead_frac");
    }
    for f in &s.failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// The ladder with self = rung − child rungs, the probes, and per workload
/// the share of host time explained by count × unit cost.
fn print_trace_report(ladder: &Values, summaries: &[Summary]) {
    println!(
        "\n== interface ladder: unloaded ops, median of {} ==",
        ladder::K
    );
    println!(
        "    {:<10} {:>4} {:>12} {:>12} {:>12}",
        "rung", "op", "sim ns", "sim self ns", "host ns"
    );
    for rung in catalog::DATA_RUNGS {
        for op in ["w1m", "r1m"] {
            let get = |r: &str, what: &str| {
                ladder
                    .get(&format!("{r}.{op}.{what}"))
                    .copied()
                    .unwrap_or(0.0)
            };
            let below: f64 = ladder::children(rung)
                .iter()
                .map(|c| get(c, "sim_ns"))
                .sum();
            println!(
                "    {rung:<10} {op:>4} {:>12.0} {:>12.0} {:>12.0}",
                get(rung, "sim_ns"),
                get(rung, "sim_ns") - below,
                get(rung, "host_ns"),
            );
        }
    }
    for rung in catalog::META_RUNGS {
        let get = |what: &str| {
            ladder
                .get(&format!("{rung}.{what}"))
                .copied()
                .unwrap_or(0.0)
        };
        println!(
            "    {rung:<27} {:>12.0} {:>12} {:>12.0}",
            get("sim_ns"),
            "",
            get("host_ns")
        );
    }
    println!("\n== kernel probes: host ns per call, fastest of 5 batches ==");
    for m in catalog::probe_metrics() {
        if let Some(v) = ladder.get(&m.name) {
            println!("    {:<34} {v:>12.1} {}", m.name, m.unit);
        }
    }
    println!("\n== host_wall_s explained by count × unit cost ==");
    println!(
        "    {:<18} {:>9} {:>10} {:>10} {:>10} {:>13}",
        "workload", "wall s", "executor", "fabric", "hashing", "unattributed"
    );
    let unit = |k: &str| ladder.get(k).copied().unwrap_or(0.0);
    for s in summaries {
        let v = |k: &str| s.values.get(k).copied().unwrap_or(0.0);
        let wall = v("host_wall_s");
        if wall <= 0.0 {
            continue;
        }
        let executor = v("sim.tasks_spawned") * unit("sim.spawn_join.host_ns") / 1e9;
        let fabric = v("fabric.rpcs") * unit("fabric.reserve_message.host_ns") / 1e9;
        let hashing = v("vos.payload_mib") * unit("vos.csum64_miss.host_ns_per_mib") / 1e9;
        let pct = |x: f64| format!("{:.1} %", 100.0 * x / wall);
        println!(
            "    {:<18} {wall:>9.3} {:>10} {:>10} {:>10} {:>13}",
            s.name,
            pct(executor),
            pct(fabric),
            pct(hashing),
            pct(wall - executor - fabric - hashing),
        );
    }
}

fn json_metrics(metrics: &[Metric], values: &Values) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = values
                .get(&m.name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The line the repo's benchmark driver reads: end-to-end metrics of the
/// untraced runs, or with `--trace` every per-layer metric. `failed` counts
/// ops whose outcome broke a correctness check; requests the system
/// refused by design are reported through `ops_ok_frac`.
fn result_line(args: &Args, s: &Summary, ladder: &Values) -> String {
    let (metrics, mut values) = if args.trace {
        (catalog::per_layer(), ladder.clone())
    } else {
        (catalog::end_to_end(), Values::new())
    };
    values.extend(s.values.iter().map(|(k, v)| (k.clone(), *v)));
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        s.correct(),
        s.attempted(),
        if s.correct() { 0 } else { s.attempted() },
        json_metrics(&metrics, &values),
    )
}

fn write_metrics_json(args: &Args, summaries: &[Summary], ladder: &Values) -> std::io::Result<()> {
    let all: Vec<Metric> = catalog::end_to_end()
        .into_iter()
        .chain(catalog::per_layer())
        .collect();
    let mut s = format!("{{\n  \"seed\": {},\n  \"workloads\": {{\n", args.seed);
    for (i, w) in summaries.iter().enumerate() {
        let present: Vec<Metric> = all
            .iter()
            .filter(|m| w.values.contains_key(&m.name))
            .cloned()
            .collect();
        let _ = write!(
            s,
            "    \"{}\": {{\"correct\": {}, \"repetitions\": {}, \"metrics\": {}}}",
            w.name,
            w.correct(),
            w.reps,
            json_metrics(&present, &w.values)
        );
        s.push_str(if i + 1 < summaries.len() { ",\n" } else { "\n" });
    }
    let traced: Vec<Metric> = all
        .iter()
        .filter(|m| ladder.contains_key(&m.name))
        .cloned()
        .collect();
    let _ = writeln!(
        s,
        "  }},\n  \"ladder_and_probes\": {}\n}}",
        json_metrics(&traced, ladder)
    );
    std::fs::write(args.out.join("metrics.json"), s)
}

/// Join the children's span files into one Chrome trace.
fn write_trace_json(out: &Path, parts: &[String]) -> std::io::Result<()> {
    let mut events = Vec::new();
    for what in parts {
        let part = out.join(format!("trace.{what}.events"));
        if let Ok(text) = std::fs::read_to_string(&part) {
            events.extend(text.lines().map(str::to_string));
            std::fs::remove_file(&part)?;
        }
    }
    std::fs::write(
        out.join("trace.json"),
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
    )
}

struct Suite {
    summaries: Vec<Summary>,
    ladder: Values,
}

fn run_suite(args: &Args) -> Suite {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => catalog::WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut summaries = Vec::new();
    for name in &names {
        let pid = catalog::WORKLOADS
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or(0) as u32
            + 1;
        let s = measure(args, name, pid);
        print_summary(&s, args.seed);
        summaries.push(s);
    }
    let mut ladder = Values::new();
    if args.trace {
        let part = args.out.join("trace.ladder.events");
        let out = spawn_child(args, "ladder", Some((&part, 0)));
        ladder = out.values;
        ladder.remove("host_peak_rss_mib");
        for s in &mut summaries {
            s.failures
                .extend(out.failures.iter().map(|f| format!("ladder: {f}")));
        }
        print_trace_report(&ladder, &summaries);
        let mut parts: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        parts.push("ladder".into());
        if let Err(e) = write_trace_json(&args.out, &parts) {
            eprintln!("writing trace.json: {e}");
        }
    }
    Suite { summaries, ladder }
}

/// `--selfcheck`: two full sets of runs must agree — exact values
/// identically, bounded host metrics within their bound.
fn selfcheck(args: &Args) -> ExitCode {
    let (a, b) = (run_suite(args), run_suite(args));
    let kinds = catalog::index();
    let mut bad = 0;
    println!("\n== self-check: spread between two sets of runs ==");
    println!(
        "    {:<18} {:<22} {:>14} {:>14} {:>9}",
        "workload", "metric", "first", "second", "spread"
    );
    for (x, y) in a.summaries.iter().zip(&b.summaries) {
        bad += x.failures.len() + y.failures.len();
        for (k, &vx) in &x.values {
            let vy = y.values.get(k).copied().unwrap_or(f64::NAN);
            let m = kinds.get(k);
            let host = catalog::is_host(&kinds, k);
            let spread = (vx - vy).abs() / vx.abs().min(vy.abs()).max(f64::MIN_POSITIVE);
            let ok = match (host, m.and_then(|m| m.bound)) {
                (false, _) => vx.to_bits() == vy.to_bits(),
                (true, Some(bound)) => spread <= bound,
                (true, None) => true,
            };
            if host && m.is_some_and(|m| m.bound.is_some()) || !ok {
                println!(
                    "    {:<18} {k:<22} {vx:>14.6} {vy:>14.6} {:>8.2} %{}",
                    x.name,
                    spread * 100.0,
                    if ok { "" } else { "  FAIL" }
                );
            }
            if !ok {
                bad += 1;
            }
        }
    }
    if bad == 0 {
        println!("self-check passed: exact values identical, host metrics within their bounds");
        ExitCode::SUCCESS
    } else {
        println!("self-check FAILED: {bad} disagreement(s) or failed check(s)");
        ExitCode::FAILURE
    }
}

pub fn run(args: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("creating {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if args.selfcheck {
        return selfcheck(args);
    }
    let suite = run_suite(args);
    if let Err(e) = write_metrics_json(args, &suite.summaries, &suite.ladder) {
        eprintln!("writing metrics.json: {e}");
    }
    let ok = suite.summaries.iter().all(Summary::correct);
    if let (Some(_), Some(s)) = (&args.workload, suite.summaries.first()) {
        println!("{}", result_line(args, s, &suite.ladder));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
