//! The result every run prints: correctness, operation counts and named
//! metrics, rendered as one JSON object on the last line of output.

use qecool::json::{obj, Json};

/// One run's outcome.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: session-rounds served, or shots run.
    pub attempted: u64,
    /// Operations failed: dropped, overflowed, or output unlike the
    /// reference.
    pub failed: u64,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Report {
    /// A report with no metrics yet.
    pub fn new(attempted: u64, failed: u64, correct: bool) -> Self {
        Self {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets a metric (replacing an earlier value of the same name).
    ///
    /// # Panics
    ///
    /// On a non-finite value, which the result line cannot carry.
    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_owned(), value)),
        }
    }

    /// Adds a human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human-readable lines.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Names of every metric set.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(n, _)| n.as_str())
    }

    /// The result line: `catalogue` fixes which metrics appear, in which
    /// order, with which unit. A metric the workload does not exercise
    /// reads 0.
    pub fn to_json(&self, catalogue: &[(String, &'static str)]) -> String {
        let metrics = catalogue.iter().map(|(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            (
                name.clone(),
                obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str((*unit).into())),
                ]),
            )
        });
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(u128::from(self.attempted))),
            ("failed", Json::UInt(u128::from(self.failed))),
            ("metrics", obj(metrics)),
        ])
        .render()
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_expected_shape() {
        let mut r = Report::new(10, 1, true);
        r.metric("a_s", 0.125);
        r.metric("a_s", 0.25);
        let catalogue = vec![("a_s".to_owned(), "s"), ("b_count".to_owned(), "count")];
        let line = r.to_json(&catalogue);
        let parsed = Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(1));
        let metrics = parsed.get("metrics").expect("metrics");
        let a = metrics.get("a_s").expect("a_s");
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("s"));
        let b = metrics.get("b_count").expect("b_count");
        assert_eq!(b.get("value").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
