//! The repo's benchmark: seven workloads, simulated and host metrics, and
//! an interface-ladder trace. See `README.md` beside `Cargo.toml`.
//!
//! One process measures one repetition of one workload (`--child`); the
//! parent (`driver`) starts a fresh child per repetition, because the
//! `csum64` memo cache in `daos-vos` is thread-local and survives across
//! `Sim`s: a second in-process repetition would measure a warm cache no
//! real run sees. A child per run also makes `VmHWM` a clean per-workload
//! peak.

mod alloc;
mod catalog;
mod closedloop;
mod counters;
mod driver;
mod ladder;
mod openloop;
mod probes;
mod slices;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use catalog::DEFAULT_SEED;
use spans::Tracer;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Host seconds since this process entered `main`. Read at a
/// repetition's first timed op it is `setup_s`: argument parsing, the
/// workload's pre-flight pass, `Sim::new`, cluster build, connects,
/// mounts, tenant pools and pre-fill.
pub fn since_process_start() -> f64 {
    PROCESS_START
        .get_or_init(Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// Named values one run reports (metrics and the figures printed beside them).
pub type Values = BTreeMap<String, f64>;

/// What one repetition of a workload produced.
#[derive(Default)]
pub struct Rep {
    pub values: Values,
    /// Host ns of every slice of the timed section (see `slices`).
    pub slices: Vec<u64>,
    /// Failed correctness checks; any entry fails the whole workload.
    pub failures: Vec<String>,
}

impl Rep {
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
    pub fn fail(mut self, why: String) -> Rep {
        self.failures.push(why);
        self
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the metrics are defined at.
    Full,
    /// Pre-flight and test size: same code paths, milliseconds of host time.
    Smoke,
}

/// Run one repetition of the named workload in this process.
pub fn run_workload(name: &str, scale: Scale, seed: u64, tracer: &Rc<Tracer>) -> Option<Rep> {
    if let Some(spec) = closedloop::ior_spec(name, scale) {
        Some(closedloop::run_ior(spec, seed, tracer))
    } else if name == "mdtest_dfuse" {
        Some(closedloop::run_mdtest(scale, seed, tracer))
    } else {
        openloop::openloop_spec(name, scale).map(|spec| openloop::run_openloop(spec, seed, tracer))
    }
}

/// Pre-flight correctness pass of one workload: the same code at smoke
/// scale and the default seed, before anything is measured. The IOR cells
/// run with `verify: true` (byte-for-byte read-back through DFS-S2-fpp,
/// HDF5-SX-shared and DFS 4 KiB random), mdtest must leave every rank
/// directory empty, and the open-loop accounting must close. Returns the
/// failed checks.
pub fn preflight(name: &str) -> Vec<String> {
    let tracer = Rc::new(Tracer::new(false));
    match run_workload(name, Scale::Smoke, DEFAULT_SEED, &tracer) {
        Some(rep) => rep.failures,
        None => vec![format!("unknown workload {name:?}")],
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub struct Args {
    pub out: PathBuf,
    pub workload: Option<String>,
    pub seed: u64,
    pub reps: u32,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub selfcheck: bool,
    child: Option<String>,
    trace_out: Option<PathBuf>,
    pid: u32,
    print_benchmark_json: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: DEFAULT_SEED,
        reps: 3,
        seconds: None,
        trace: false,
        selfcheck: false,
        child: None,
        trace_out: None,
        pid: 0,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = parse_u64(&v).ok_or(format!("bad --seed {v:?}"))?;
            }
            "--reps" => {
                let v = value("a count")?;
                args.reps = v
                    .parse()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or(format!("bad --reps {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a duration")?;
                args.seconds = Some(v.parse().map_err(|_| format!("bad --seconds {v:?}"))?);
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--child" => args.child = Some(value("a workload")?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a file")?)),
            "--pid" => args.pid = value("a number")?.parse().map_err(|_| "bad --pid")?,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !catalog::WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(args)
}

/// Child mode: one repetition (or the ladder and probes) in this fresh
/// process; prints `name value` lines for the parent, `CHECK_FAIL …` lines
/// for failed checks, and writes its spans if asked to. A repetition
/// starts with the workload's pre-flight pass, which counts as set-up.
fn child(args: &Args, what: &str) -> ExitCode {
    let tracer = Rc::new(Tracer::new(args.trace_out.is_some()));
    let mut rep = if what == "ladder" {
        let mut rep = Rep::default();
        match ladder::run_ladder(args.seed, &tracer) {
            Ok(values) => rep.values = values,
            Err(e) => rep.failures.push(e),
        }
        rep.values.extend(probes::run_probes(&tracer));
        rep
    } else {
        let failed = preflight(what);
        match run_workload(what, Scale::Full, args.seed, &tracer) {
            Some(mut rep) => {
                rep.failures
                    .extend(failed.into_iter().map(|f| format!("pre-flight: {f}")));
                rep
            }
            None => {
                eprintln!("unknown workload {what:?}");
                return ExitCode::from(2);
            }
        }
    };
    rep.put("host_peak_rss_mib", peak_rss_mib());
    if let Some(path) = &args.trace_out {
        let events = spans::chrome_events(&tracer.take(), what, args.pid);
        if let Err(e) = std::fs::write(path, events) {
            rep.failures
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    for (name, value) in &rep.values {
        println!("{name} {value:?}");
    }
    let slices: Vec<String> = rep.slices.iter().map(u64::to_string).collect();
    println!("SLICES {}", slices.join(" "));
    for f in &rep.failures {
        println!("CHECK_FAIL {f}");
    }
    if rep.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    since_process_start();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("daos-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match &args.child {
        Some(what) => child(&args, what),
        None => driver::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, seed: u64) -> Rep {
        let rep = run_workload(name, Scale::Smoke, seed, &Rc::new(Tracer::new(false)))
            .expect("known workload");
        assert!(rep.failures.is_empty(), "{name}: {:?}", rep.failures);
        rep
    }

    /// Simulated results and counts of a smoke run, host values dropped.
    fn exact(rep: &Rep) -> Values {
        let index = catalog::index();
        rep.values
            .iter()
            .filter(|(k, _)| !catalog::is_host(&index, k) && k.as_str() != "host_allocs_per_op")
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    #[test]
    fn preflight_passes_on_every_workload() {
        for (name, _) in catalog::WORKLOADS {
            assert_eq!(preflight(name), Vec::<String>::new(), "{name}");
        }
        assert_eq!(preflight("nope").len(), 1);
    }

    #[test]
    fn same_seed_repeats_exactly_and_another_seed_moves_the_results() {
        // the workloads whose simulated results the seed must move: the
        // shared-file IOR cell through the placement salt, open loop
        // through the arrivals
        for name in [
            "ior_hard_hdf5",
            "openloop_nominal",
            "openloop_overload",
            "openloop_qos",
        ] {
            let (a, b) = (smoke(name, DEFAULT_SEED), smoke(name, DEFAULT_SEED));
            assert_eq!(exact(&a), exact(&b), "{name}: same seed must repeat");
            let c = smoke(name, 7);
            let moved = |k: &str| a.values.get(k) != c.values.get(k);
            assert!(
                moved("sim_ops_kps") || moved("sim.simulated_ms"),
                "{name}: --seed 7 left the simulated results unchanged"
            );
        }
    }

    #[test]
    fn open_loop_arrival_count_is_a_function_of_the_seed() {
        let count = |seed| smoke("openloop_overload", seed).values["ops_attempted"];
        assert_eq!(count(11), count(11));
        assert_ne!(count(11), count(12));
    }

    #[test]
    fn every_reported_metric_is_in_the_catalogue_and_named_validly() {
        let known: Vec<String> = catalog::end_to_end()
            .into_iter()
            .chain(catalog::per_layer())
            .map(|m| m.name)
            .collect();
        for (name, _) in catalog::WORKLOADS {
            let rep = smoke(name, DEFAULT_SEED);
            for k in rep.values.keys() {
                assert!(catalog::valid_name(k), "{name} reports invalid name {k:?}");
            }
            // group (a) and the dense end-to-end values come from every run
            // (ops_ok_frac and peak RSS are added by the parent and child shells)
            for m in catalog::layer_counts() {
                let ior_only = m.name.starts_with("ior.");
                assert!(
                    rep.values.contains_key(&m.name) || (ior_only && !name.starts_with("ior_")),
                    "{name} lacks {}",
                    m.name
                );
            }
            for k in [
                "setup_s",
                "host_wall_s",
                "host_allocs_per_op",
                "sim_ops_kps",
            ] {
                assert!(rep.values[k] > 0.0 && known.contains(&k.to_string()));
            }
        }
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_u64("0xF161"), Some(0xF161));
        assert_eq!(parse_u64("61793"), Some(61793));
        assert_eq!(parse_u64("f161"), None);
    }
}
