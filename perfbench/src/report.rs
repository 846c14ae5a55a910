//! Metric collection and output: one human-readable line per metric, then
//! the result object as the last line of standard output.

use crate::stats::{beyond, percentile, tail_percentile};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
    /// Extra context for the human-readable line.
    pub note: String,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any one makes the run incorrect.
    pub check_failures: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.add_noted(name, value, unit, samples, String::new());
    }

    pub fn add_noted(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note,
        });
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Prints every metric on its own line, then the result object with
    /// the metrics named in `keep` (all of which must be present).
    pub fn print(&self, keep: &[&str]) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", m.note)
            };
            println!(
                "metric {:<34} {:>14.6} {:<6} n={}{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for f in &self.check_failures {
            println!("CHECK FAILED: {f}");
        }
        let mut fields = Vec::new();
        for name in keep {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(m.value.is_finite(), "metric {name} is not a number");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }

    /// Adds `{prefix}_p{q}_ms` for each percentile in `qs` over the
    /// latencies `ms`, noting how many samples lie beyond each and which
    /// tail percentile the sample count supports.
    pub fn add_latencies(&mut self, prefix: &str, ms: &[f64], qs: &[f64]) {
        let mut sorted = ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = tail_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
        for &q in qs {
            let value = if n == 0 { 0.0 } else { percentile(&sorted, q) };
            let note = format!(
                "{} beyond; highest percentile with >=10 beyond: {tail}",
                beyond(n, q)
            );
            self.add_noted(&format!("{prefix}_p{q}_ms"), value, "ms", n, note);
        }
    }
}
