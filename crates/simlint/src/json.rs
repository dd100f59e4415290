//! Machine-readable JSON report (`--json`). Hand-rolled and
//! write-only — simlint has no dependencies and never reads JSON back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{FileReport, Hit};

/// Escape a string for JSON output.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn hit_json(fr: &FileReport, h: &Hit) -> String {
    let mut s = format!(
        "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"what\": {}",
        esc(h.rule),
        esc(&fr.path),
        h.line,
        esc(&h.what)
    );
    if let Some(r) = &h.reason {
        let _ = write!(s, ", \"reason\": {}", esc(r));
    }
    s.push('}');
    s
}

/// One JSON section: name, hit accessor.
type Section = (&'static str, fn(&FileReport) -> &Vec<Hit>);

/// Render the machine-readable report. Deterministic: files are
/// pre-sorted by the walker and hits by (line, col) within each file.
pub fn render_json(reports: &[FileReport]) -> String {
    let sections: [Section; 4] = [
        ("violations", |fr| &fr.violations),
        ("waived", |fr| &fr.waived),
        ("sanctioned", |fr| &fr.sanctioned),
        // P01 sites carrying an `INVARIANT:` justification
        ("audited", |fr| &fr.audited),
    ];
    // per-rule hit counts, one slot per section
    let mut per_rule: BTreeMap<&str, [u64; 4]> = BTreeMap::new();
    for fr in reports {
        for (slot, (_, get)) in sections.iter().enumerate() {
            for h in get(fr) {
                per_rule.entry(h.rule).or_default()[slot] += 1;
            }
        }
    }

    let mut s = String::from("{\n  \"schema\": 2,\n");
    let _ = writeln!(s, "  \"files_scanned\": {},", reports.len());
    s.push_str("  \"per_rule\": {");
    let mut first = true;
    for (rule, [v, w, sa, au]) in &per_rule {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "\n    {}: {{\"violations\": {v}, \"waived\": {w}, \"sanctioned\": {sa}, \"audited\": {au}}}",
            esc(rule)
        );
    }
    s.push_str("\n  }");
    for (name, get) in &sections {
        let _ = write!(s, ",\n  {}: [", esc(name));
        let mut first = true;
        for fr in reports {
            for h in get(fr) {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(s, "\n    {}", hit_json(fr, h));
            }
        }
        s.push_str(if first { "]" } else { "\n  ]" });
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(rule: &'static str, line: u32) -> Hit {
        Hit {
            rule,
            line,
            col: 1,
            what: "x".into(),
            reason: None,
        }
    }

    #[test]
    fn json_report_escapes_and_has_every_section() {
        let fr = FileReport {
            path: "crates/sim/src/x.rs".into(),
            violations: vec![hit("P01", 1)],
            waived: vec![Hit {
                reason: Some("why \"quoted\"".into()),
                ..hit("D02", 2)
            }],
            audited: vec![hit("P01", 3)],
            ..Default::default()
        };
        let text = render_json(&[fr]);
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains(
            "\"P01\": {\"violations\": 1, \"waived\": 0, \"sanctioned\": 0, \"audited\": 1}"
        ));
        assert!(text.contains("\"sanctioned\": []"));
        assert!(text.contains("\"audited\": [\n"));
    }
}
