//! Machine-readable benchmark reports: `BENCH_<name>.json`.
//!
//! Every figure binary (and the `regress` harness) distills its run into a
//! [`BenchReport`]: a schema-versioned map of *series → scale → metrics*
//! plus the provenance needed to reproduce it (sim seed, a hash of the
//! cluster config). Host wall time is deliberately *not* in the report —
//! it is schedule-dependent, so it lives in `timing.txt` and a report is
//! byte-identical run to run.
//! Reports round-trip through a small
//! hand-rolled JSON layer — the workspace builds offline against vendored
//! stand-ins, so there is no serde; the subset implemented here (objects,
//! strings with the escapes the writer emits, numbers) is exactly what the
//! schema needs, and the reader fills the report as it goes.
//!
//! Integer fields (seed, config hash) routinely exceed 2^53, so the reader
//! converts each raw number token to the field's own type instead of
//! routing everything through `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Bump when the JSON layout changes shape; [`BenchReport::from_json`]
/// rejects mismatches so stale baselines fail loudly instead of diffing
/// garbage.
pub const SCHEMA_VERSION: u64 = 1;

/// Metric name of an IOR write phase's bandwidth.
pub const WRITE_GIB_S: &str = "write_gib_s";
/// Metric name of an IOR read phase's bandwidth.
pub const READ_GIB_S: &str = "read_gib_s";

/// Named scalar metrics for one (series, scale) cell, e.g.
/// `{WRITE_GIB_S: 34.0, READ_GIB_S: 108.0}`.
pub type Metrics = BTreeMap<String, f64>;

/// One benchmark run, distilled to the numbers worth tracking across PRs.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema: u64,
    /// Benchmark name; the file is `BENCH_<name>.json`.
    pub name: String,
    /// Root sim seed the run used.
    pub seed: u64,
    /// FNV-1a hash of the cluster config ([`config_hash`]); 0 when the
    /// benchmark spans several configs.
    pub config_hash: u64,
    /// series label → scale (client nodes; 0 for scale-less rows) → metrics.
    pub series: BTreeMap<String, BTreeMap<u32, Metrics>>,
}

impl BenchReport {
    /// Empty report for `name`, stamped with the run's root seed.
    pub fn new(name: &str, seed: u64) -> Self {
        BenchReport {
            schema: SCHEMA_VERSION,
            name: name.to_string(),
            seed,
            config_hash: 0,
            series: BTreeMap::new(),
        }
    }

    /// Record one metric value for a (series, scale) cell.
    pub fn record(&mut self, series: &str, scale: u32, metric: &str, value: f64) {
        self.series
            .entry(series.to_string())
            .or_default()
            .entry(scale)
            .or_default()
            .insert(metric.to_string(), value);
    }

    /// Look up one metric value.
    pub fn get(&self, series: &str, scale: u32, metric: &str) -> Option<f64> {
        self.series.get(series)?.get(&scale)?.get(metric).copied()
    }

    /// Every (series, scale, metric) triple, in deterministic order.
    pub fn cells(&self) -> Vec<(&str, u32, &str, f64)> {
        let mut out = Vec::new();
        for (s, scales) in &self.series {
            for (&n, metrics) in scales {
                for (m, &v) in metrics {
                    out.push((s.as_str(), n, m.as_str(), v));
                }
            }
        }
        out
    }

    /// Serialize to pretty-printed JSON (stable key order — `BTreeMap`
    /// everywhere — so diffs of committed baselines stay readable).
    pub fn to_json(&self) -> String {
        // `{`, the entries joined by `,`, then `}` on a line of its own
        let object = |indent, entries: Vec<String>| format!("{{{}\n{indent}}}", entries.join(","));
        let series = self.series.iter().map(|(name, scales)| {
            let scales = scales.iter().map(|(scale, metrics)| {
                let metrics = metrics.iter().map(|(metric, value)| {
                    format!("\n        {}: {}", quote(metric), fmt_f64(*value))
                });
                format!(
                    "\n      \"{scale}\": {}",
                    object("      ", metrics.collect())
                )
            });
            format!(
                "\n    {}: {}",
                quote(name),
                object("    ", scales.collect())
            )
        });
        format!(
            "{{\n  \"schema\": {},\n  \"name\": {},\n  \"seed\": {},\n  \"config_hash\": {},\n  \"series\": {}\n}}\n",
            self.schema,
            quote(&self.name),
            self.seed,
            self.config_hash,
            object("  ", series.collect())
        )
    }

    /// Parse a report back from JSON; schema mismatches and malformed
    /// documents are errors, unknown top-level keys are skipped (forward
    /// compatibility — and how reports written before `wall_secs` was
    /// dropped keep loading).
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let mut r = Reader { text, pos: 0 };
        let (mut schema, mut name, mut seed, mut config_hash) = (None, None, None, None);
        let mut series = BTreeMap::new();
        r.object(|r, key| {
            match key.as_str() {
                "schema" => schema = Some(r.number("schema")?),
                "name" => name = Some(r.string()?),
                "seed" => seed = Some(r.number("seed")?),
                "config_hash" => config_hash = Some(r.number("config_hash")?),
                "series" => r.object(|r, label| {
                    let scales: &mut BTreeMap<u32, Metrics> = series.entry(label).or_default();
                    r.object(|r, scale| {
                        let scale = scale
                            .parse()
                            .map_err(|_| JsonError(format!("bad scale key {scale:?}")))?;
                        let metrics = scales.entry(scale).or_default();
                        r.object(|r, metric| {
                            let value = r.number(&metric)?;
                            metrics.insert(metric, value);
                            Ok(())
                        })
                    })
                })?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        r.ws();
        if r.pos != text.len() {
            return Err(r.err("trailing data after document"));
        }
        let need = |key: &str| JsonError(format!("missing key {key:?}"));
        let schema = schema.ok_or_else(|| need("schema"))?;
        if schema != SCHEMA_VERSION {
            return Err(JsonError(format!(
                "schema version {schema} != supported {SCHEMA_VERSION}"
            )));
        }
        Ok(BenchReport {
            schema,
            name: name.ok_or_else(|| need("name"))?,
            seed: seed.ok_or_else(|| need("seed"))?,
            config_hash: config_hash.ok_or_else(|| need("config_hash"))?,
            series,
        })
    }

    /// Write `BENCH_<name>.json` under `dir`; returns the path written.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Load `BENCH_<name>.json` from `dir`.
    pub fn load(dir: &Path, name: &str) -> Result<Self, JsonError> {
        let path = dir.join(format!("BENCH_{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| JsonError(format!("{}: {e}", path.display())))?;
        Self::from_json(&text)
    }
}

/// Shortest `f64` representation that round-trips (Rust's `Display`),
/// with JSON-invalid specials mapped to null-free sentinels: the token a
/// cell is written as, and compared by. The sentinel read back writes as
/// itself, so a stored NaN cell round-trips byte for byte.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() && v != NAN_SENTINEL {
        let s = format!("{v}");
        // "1" is a valid JSON number but keep integral floats obviously
        // float-typed for human readers.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // NaN/inf are not JSON; encode out-of-band as a sentinel no real
        // metric takes.
        "-1e308".to_string()
    }
}

/// What a NaN cell is stored as; a check reads it back as missing.
pub(crate) const NAN_SENTINEL: f64 = -1e308;

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse/shape error with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// The JSON reader behind [`BenchReport::from_json`]: a cursor into the
/// document, which the caller steers key by key.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn ws(&mut self) {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    /// Skip whitespace, then consume `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.text.as_bytes().get(self.pos) == Some(&b);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.eat(b) {
            true => Ok(()),
            false => Err(self.err(&format!("expected {:?}", b as char))),
        }
    }

    /// An object, handing each key to `field`, which reads its value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, key)?;
            if self.eat(b'}') {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    /// A string, with the escapes [`quote`] emits.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let Some(at) = rest.find(['"', '\\']) else {
                return Err(self.err("unterminated string"));
            };
            out.push_str(&rest[..at]);
            self.pos += at + 1;
            if rest.as_bytes()[at] == b'"' {
                return Ok(out);
            }
            let (escape, len) = match rest.as_bytes().get(at + 1) {
                Some(b'"') => (Some('"'), 1),
                Some(b'\\') => (Some('\\'), 1),
                Some(b'n') => (Some('\n'), 1),
                Some(b't') => (Some('\t'), 1),
                Some(b'u') => {
                    let hex = rest.get(at + 2..at + 6).unwrap_or("");
                    let code = u32::from_str_radix(hex, 16).ok();
                    (code.and_then(char::from_u32), 5)
                }
                _ => (None, 0),
            };
            out.push(escape.ok_or_else(|| self.err("bad escape"))?);
            self.pos += len;
        }
    }

    /// A number, converted from its raw token to the caller's type: a
    /// `u64` never passes through `f64`.
    fn number<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, JsonError> {
        self.ws();
        let rest = &self.text[self.pos..];
        let len = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        let raw = &rest[..len];
        let value = raw
            .parse()
            .map_err(|_| self.err(&format!("{what}: bad number {raw:?}")))?;
        self.pos += len;
        Ok(value)
    }

    /// Skip the value of a key the schema does not know.
    fn skip(&mut self) -> Result<(), JsonError> {
        self.ws();
        match self.text.as_bytes().get(self.pos) {
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'"') => self.string().map(drop),
            _ => self.number::<f64>("value").map(drop),
        }
    }
}

// ---------------------------------------------------------------------
// What one parallel job hands back
// ---------------------------------------------------------------------

/// One PASS/FAIL line: a claim checked over a report.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// What was checked, with the numbers the verdict was computed from.
    pub label: String,
    pub pass: bool,
}

impl Verdict {
    pub fn new(label: impl Into<String>, pass: bool) -> Verdict {
        Verdict {
            label: label.into(),
            pass,
        }
    }
}

/// The ordered batch of records one figure cell produces.
/// Fragments are replayed into a [`BenchReport`] **in job submission
/// order**, so a slate reduced on any thread count serializes to the same
/// bytes as the serial run. (Cells land in `BTreeMap`s keyed by
/// series/scale/metric, so the replay order only matters if two jobs
/// wrote the same cell — the ordered merge makes even that case
/// schedule-independent.)
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fragment {
    /// `(series, scale, metric, value)` in record order.
    pub records: Vec<(String, u32, String, f64)>,
}

impl Fragment {
    /// Empty fragment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one metric value for a (series, scale) cell.
    pub fn record(&mut self, series: &str, scale: u32, metric: &str, value: f64) {
        self.records
            .push((series.to_string(), scale, metric.to_string(), value));
    }

    /// Replay this fragment's records into a report.
    pub fn replay_into(&self, report: &mut BenchReport) {
        for (series, scale, metric, value) in &self.records {
            report.record(series, *scale, metric, *value);
        }
    }
}

/// FNV-1a over the config's `Debug` rendering: any field change — media
/// timings, fabric widths, engine knobs — lands in the hash, so baselines
/// carry which testbed produced them without serializing every field.
pub fn config_hash(cfg: &daos_core::ClusterConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// Stable 64-bit FNV-1a (not `DefaultHasher`, whose output may change
/// across Rust releases — these hashes are committed in baselines).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
