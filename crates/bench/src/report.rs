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
//! strings, numbers) is exactly what the schema needs.
//!
//! Integer fields (seed, config hash) routinely exceed 2^53, so the parser
//! keeps raw number tokens and converts on demand instead of routing
//! everything through `f64`.

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
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", self.schema);
        let _ = writeln!(s, "  \"name\": {},", quote(&self.name));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"config_hash\": {},", self.config_hash);
        s.push_str("  \"series\": {");
        let mut first_series = true;
        for (name, scales) in &self.series {
            if !first_series {
                s.push(',');
            }
            first_series = false;
            let _ = write!(s, "\n    {}: {{", quote(name));
            let mut first_scale = true;
            for (scale, metrics) in scales {
                if !first_scale {
                    s.push(',');
                }
                first_scale = false;
                let _ = write!(s, "\n      \"{scale}\": {{");
                let mut first_metric = true;
                for (metric, value) in metrics {
                    if !first_metric {
                        s.push(',');
                    }
                    first_metric = false;
                    let _ = write!(s, "\n        {}: {}", quote(metric), fmt_f64(*value));
                }
                s.push_str("\n      }");
            }
            s.push_str("\n    }");
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Parse a report back from JSON; schema mismatches and malformed
    /// documents are errors, unknown top-level keys are ignored (forward
    /// compatibility — and how reports written before `wall_secs` was
    /// dropped keep loading).
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let root = Json::parse(text)?;
        let obj = root.as_object("document")?;
        let schema = get_key(obj, "schema")?.as_u64("schema")?;
        if schema != SCHEMA_VERSION {
            return Err(JsonError(format!(
                "schema version {schema} != supported {SCHEMA_VERSION}"
            )));
        }
        let mut report = BenchReport::new(
            get_key(obj, "name")?.as_str("name")?,
            get_key(obj, "seed")?.as_u64("seed")?,
        );
        report.config_hash = get_key(obj, "config_hash")?.as_u64("config_hash")?;
        for (series, scales) in get_key(obj, "series")?.as_object("series")? {
            for (scale, metrics) in scales.as_object(series)? {
                let scale: u32 = scale
                    .parse()
                    .map_err(|_| JsonError(format!("bad scale key {scale:?} in {series:?}")))?;
                for (metric, value) in metrics.as_object(series)? {
                    report.record(series, scale, metric, value.as_f64(metric)?);
                }
            }
        }
        Ok(report)
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

const NAN_SENTINEL: f64 = -1e308;

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

/// Minimal JSON value. Numbers keep their raw token so 64-bit integers
/// (seeds, hashes) survive without a trip through `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Raw number token, e.g. `-12.5e3` or `18446744073709551615`.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

fn get_key<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, JsonError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| JsonError(format!("missing key {key:?}")))
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }

    fn as_object<'a>(&'a self, what: &str) -> Result<&'a [(String, Json)], JsonError> {
        match self {
            Json::Obj(kv) => Ok(kv),
            other => Err(JsonError(format!("{what}: expected object, got {other:?}"))),
        }
    }

    fn as_str<'a>(&'a self, what: &str) -> Result<&'a str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError(format!("{what}: expected string, got {other:?}"))),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, JsonError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| JsonError(format!("{what}: bad number {raw:?}"))),
            other => Err(JsonError(format!("{what}: expected number, got {other:?}"))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| JsonError(format!("{what}: bad integer {raw:?}"))),
            other => Err(JsonError(format!(
                "{what}: expected integer, got {other:?}"
            ))),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected literal {lit}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            kv.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy the full UTF-8 sequence
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected number"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        // validate once so downstream conversions can't see garbage
        raw.parse::<f64>()
            .map_err(|_| self.err(&format!("bad number {raw:?}")))?;
        Ok(Json::Num(raw.to_string()))
    }
}

// ---------------------------------------------------------------------
// What one parallel job hands back
// ---------------------------------------------------------------------

/// One PASS/FAIL line: a paper invariant, a per-cell shape check.
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

/// The ordered batch of records and verdicts one figure cell produces.
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
    /// Shape checks only the live cell can evaluate, in check order.
    pub verdicts: Vec<Verdict>,
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

    /// Record one shape-check outcome.
    pub fn check(&mut self, label: String, pass: bool) {
        self.verdicts.push(Verdict::new(label, pass));
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
