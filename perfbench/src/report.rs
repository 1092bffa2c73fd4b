//! Metric collection and the result printout: a human table (value, unit,
//! sample count, layer, provenance, raw reading of a normalized time)
//! followed by the one-line JSON result.

use std::fmt::Write as _;

/// Where a number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Timed or read by the benchmark on this run.
    Measured,
    /// Timed on this run and scaled to the nominal host speed (see
    /// `reference.rs`).
    Normalized,
    /// An exact count the program reported (repeats run to run).
    Count,
    /// Derived from the engine's tallies through the branch model, not
    /// from hardware counters.
    Modeled,
    /// A property of the host, timed with the benchmark's own loops; it
    /// does not measure the program and is never gated.
    Host,
}

impl Source {
    fn as_str(self) -> &'static str {
        match self {
            Source::Measured => "measured",
            Source::Normalized => "normalized",
            Source::Count => "count",
            Source::Modeled => "modeled",
            Source::Host => "host",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub layer: &'static str,
    /// Samples behind the value (1 for a single reading or count).
    pub samples: usize,
    pub source: Source,
    /// The reading before normalization.
    pub raw: Option<f64>,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        layer: &'static str,
        samples: usize,
        source: Source,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            layer,
            samples,
            source,
            raw: None,
        });
    }

    /// A time scaled to the nominal host speed; the table also shows the
    /// raw reading.
    pub fn normalized(
        &mut self,
        name: impl Into<String>,
        value: f64,
        raw: f64,
        unit: &'static str,
        layer: &'static str,
        samples: usize,
    ) {
        self.add(name, value, unit, layer, samples, Source::Normalized);
        if let Some(m) = self.metrics.last_mut() {
            m.raw = Some(raw);
        }
    }

    pub fn measured(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        layer: &'static str,
        samples: usize,
    ) {
        self.add(name, value, unit, layer, samples, Source::Measured);
    }

    pub fn count(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        layer: &'static str,
    ) {
        self.add(name, value, unit, layer, 1, Source::Count);
    }

    /// Prints the table, then the JSON result as the last line.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        println!(
            "# {:<42} {:>16} {:<10} {:>7} {:<8} {:<10} raw",
            "metric", "value", "unit", "samples", "layer", "source"
        );
        for m in &self.metrics {
            let raw = m.raw.map_or_else(|| "-".to_string(), |r| format!("{r:.4}"));
            println!(
                "  {:<42} {:>16.4} {:<10} {:>7} {:<8} {:<10} {raw}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.layer,
                m.source.as_str()
            );
        }
        println!("# attempted={attempted} failed={failed} correct={correct}");
        println!("{}", self.json(correct, attempted, failed));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN/inf; a metric that could not be formed is a
            // benchmark bug, reported as -1 so it is visible, not dropped.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
