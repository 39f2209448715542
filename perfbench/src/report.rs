//! Metric rows, the printed table, and the result line.

use crate::stats::{median, quartiles};
use picocube_units::json::Json;

/// One reported metric: its samples over the run's reps (a single sample
/// for exact or once-per-run figures) and their median as the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value: the median of the samples.
    pub value: f64,
    /// Samples, in measurement order.
    pub samples: Vec<f64>,
}

impl Row {
    /// A row over per-rep samples.
    pub fn sampled(name: &str, unit: &str, samples: Vec<f64>) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value: median(&samples),
            samples,
        }
    }

    /// A row with one exact value.
    pub fn exact(name: &str, unit: &str, value: f64) -> Self {
        Self::sampled(name, unit, vec![value])
    }

    /// The row as context JSON: value, sample count and quartiles.
    pub fn to_json(&self) -> Json {
        let (q1, q3) = quartiles(&self.samples);
        Json::Obj(vec![
            ("value".into(), Json::Num(self.value)),
            ("unit".into(), Json::Str(self.unit.clone())),
            ("reps".into(), Json::UInt(self.samples.len() as u64)),
            ("q1".into(), Json::Num(q1)),
            ("q3".into(), Json::Num(q3)),
        ])
    }

    /// One aligned table line.
    pub fn table_line(&self) -> String {
        let (q1, q3) = quartiles(&self.samples);
        let spread = if self.samples.len() > 1 {
            format!("  (n={}, q1 {q1:.6}, q3 {q3:.6})", self.samples.len())
        } else {
            String::new()
        };
        format!(
            "  {:<34} {:>16.6} {:<10}{spread}",
            self.name, self.value, self.unit
        )
    }
}

/// The last stdout line: `correct`, `attempted`, `failed` and the
/// contract metrics with their units.
pub fn result_line(attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics = rows
        .iter()
        .map(|row| {
            (
                row.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(row.value)),
                    ("unit".into(), Json::Str(row.unit.clone())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::UInt(attempted)),
        ("failed".into(), Json::UInt(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

/// Rows as a JSON object keyed by name.
pub fn rows_json(rows: &[Row]) -> Json {
    Json::Obj(rows.iter().map(|r| (r.name.clone(), r.to_json())).collect())
}

/// The checked-out commit, read from `.git` beside the benchmark, or
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let rows = [
            Row::sampled("latency_ms", "ms", vec![3.0, 1.0, 2.0]),
            Row::exact("setup_s", "s", 0.5),
        ];
        let line = result_line(10, 0, &rows);
        let json = Json::parse(&line).expect("result line is JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = json.get("metrics").expect("metrics");
        let latency = metrics.get("latency_ms").expect("latency row");
        assert_eq!(latency.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(latency.get("unit").and_then(Json::as_str), Some("ms"));
        assert!(metrics.get("setup_s").is_some());
        let failing = Json::parse(&result_line(10, 1, &rows)).expect("JSON");
        assert_eq!(failing.get("correct"), Some(&Json::Bool(false)));
    }
}
