//! Machine-readable benchmark records (`BENCH_lp.json`).
//!
//! A full `repro timing` writes the engine's LP timing records to
//! `BENCH_lp.json` so the perf trajectory is tracked across PRs instead of
//! living only in stdout logs; reduced runs (`repro timing --fast`, the
//! `quick` CI smoke) check the same round-trip through a scratch file.
//! The document model comes from [`greencloud_api::json`]; this module
//! keeps the fixed `greencloud-bench-lp/1` schema on top of it.

use greencloud_api::json::Json;
use greencloud_api::report::TimingRecord;
use std::fmt::Write as _;
use std::path::Path;

/// Schema identifier written to (and required from) `BENCH_lp.json`.
pub const BENCH_SCHEMA: &str = "greencloud-bench-lp/1";

/// Renders the records as the `BENCH_lp.json` document.
pub fn render_bench_json(records: &[TimingRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",");
    let _ = writeln!(out, "  \"benches\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"wall_ms\": {:.3}, \"iterations\": {}, \"warm_rate\": {:.4}}}{comma}",
            greencloud_api::json::quote(&r.name),
            r.wall_ms,
            r.iterations,
            r.warm_rate
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Parses a `BENCH_lp.json` document back into records, validating the
/// schema tag and per-record field types.
///
/// # Errors
///
/// A human-readable description of the first structural problem found.
pub fn parse_bench_json(text: &str) -> Result<Vec<TimingRecord>, String> {
    let doc = Json::parse(text)?;
    if !matches!(&doc, Json::Object(_)) {
        return Err("top level is not an object".into());
    }
    match doc.get("schema") {
        Some(Json::Str(s)) if s == BENCH_SCHEMA => {}
        other => return Err(format!("unexpected schema: {other:?}")),
    }
    let rows = doc
        .get("benches")
        .ok_or("missing \"benches\"")?
        .as_array()
        .ok_or("\"benches\" is not an array")?;
    let mut records = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let name = match row.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("bench #{i}: missing string \"name\"")),
        };
        let wall_ms = row
            .get("wall_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("bench #{i}: missing number \"wall_ms\""))?;
        let iterations = row
            .get("iterations")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("bench #{i}: missing integer \"iterations\""))?;
        let warm_rate = row
            .get("warm_rate")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("bench #{i}: missing number \"warm_rate\""))?;
        records.push(TimingRecord {
            name,
            wall_ms,
            iterations,
            warm_rate,
        });
    }
    Ok(records)
}

/// Checks that `text` parses back into exactly the `written` records:
/// names and iteration counts equal, `wall_ms` and `warm_rate` equal to
/// the precision [`render_bench_json`] writes (3 and 4 decimals).
///
/// # Errors
///
/// The parse error, or the first row that differs from the one written.
pub fn check_bench_json(written: &[TimingRecord], text: &str) -> Result<(), String> {
    let parsed = parse_bench_json(text)?;
    if parsed.len() != written.len() {
        return Err(format!(
            "{} records in, {} out",
            written.len(),
            parsed.len()
        ));
    }
    for (i, (w, p)) in written.iter().zip(&parsed).enumerate() {
        let same = w.name == p.name
            && w.iterations == p.iterations
            && format!("{:.3}", w.wall_ms) == format!("{:.3}", p.wall_ms)
            && format!("{:.4}", w.warm_rate) == format!("{:.4}", p.warm_rate);
        if !same {
            return Err(format!("bench #{i}: wrote {w:?}, read back {p:?}"));
        }
    }
    Ok(())
}

/// Writes the records to `path` as a `BENCH_lp.json` document and checks
/// that what landed on disk parses back into the same rows.
///
/// # Errors
///
/// The write or read error, or what [`check_bench_json`] finds.
pub fn write_bench_json(path: &Path, records: &[TimingRecord]) -> Result<(), String> {
    std::fs::write(path, render_bench_json(records)).map_err(|e| format!("write: {e}"))?;
    let back = std::fs::read_to_string(path).map_err(|e| format!("readback: {e}"))?;
    check_bench_json(records, &back)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<TimingRecord> {
        vec![
            TimingRecord {
                name: "single_site_cold/devex".into(),
                wall_ms: 17.25,
                iterations: 565,
                warm_rate: 0.0,
            },
            TimingRecord {
                name: "hourly \"quoted\"".into(),
                wall_ms: 0.5,
                iterations: 0,
                warm_rate: 0.9896,
            },
        ]
    }

    #[test]
    fn round_trips() {
        let records = records();
        let text = render_bench_json(&records);
        let back = parse_bench_json(&text).expect("parses");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, records[0].name);
        assert_eq!(back[0].iterations, 565);
        assert!((back[0].wall_ms - 17.25).abs() < 1e-9);
        assert_eq!(back[1].name, records[1].name);
        assert!((back[1].warm_rate - 0.9896).abs() < 1e-9);
        assert_eq!(check_bench_json(&records, &text), Ok(()));
    }

    #[test]
    fn writes_to_the_given_path_and_reads_it_back() {
        let path =
            std::env::temp_dir().join(format!("greencloud-bench-json-{}.json", std::process::id()));
        let records = records();
        let written = write_bench_json(&path, &records);
        let text = std::fs::read_to_string(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(written, Ok(()));
        assert_eq!(text.expect("written"), render_bench_json(&records));
    }

    #[test]
    fn check_rejects_a_renamed_row_or_a_changed_iteration_count() {
        let records = records();
        let text = render_bench_json(&records);
        let renamed = text.replace("single_site_cold/devex", "single_site_cold/dev");
        assert!(check_bench_json(&records, &renamed).is_err());
        let recounted = text.replace("\"iterations\": 565", "\"iterations\": 566");
        assert!(check_bench_json(&records, &recounted).is_err());
        // Sub-precision noise in the written value is not a mismatch.
        let mut noisy = records.clone();
        noisy[0].wall_ms += 1e-6;
        assert_eq!(check_bench_json(&noisy, &text), Ok(()));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_bench_json("").is_err());
        assert!(parse_bench_json("[]").is_err());
        assert!(parse_bench_json("{\"schema\": \"other\", \"benches\": []}").is_err());
        assert!(parse_bench_json(
            "{\"schema\": \"greencloud-bench-lp/1\", \"benches\": [{\"name\": 3}]}"
        )
        .is_err());
        let ok = parse_bench_json("{\"schema\": \"greencloud-bench-lp/1\", \"benches\": []}");
        assert_eq!(ok.expect("valid"), vec![]);
    }
}
