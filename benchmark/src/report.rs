//! What one run of one workload reports, and how it is printed.

use scup_harness::json::Json;

use crate::spec::Metric;
use crate::stats;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Inter-quartile distance of the samples behind `value` (timing
    /// metrics reported as a median over slices), else `None`.
    pub iqr: Option<f64>,
    pub samples: usize,
}

/// Collects rows against the declared metric list, so that a run can only
/// print declared names, each once, and must print all of them.
#[derive(Debug)]
pub struct Rows {
    declared: Vec<Metric>,
    rows: Vec<Option<Row>>,
}

impl Rows {
    pub fn new(declared: Vec<Metric>) -> Self {
        let rows = vec![None; declared.len()];
        Rows { declared, rows }
    }

    fn put(&mut self, name: &str, value: f64, iqr: Option<f64>, samples: usize) {
        let idx = self
            .declared
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in spec.rs"));
        assert!(self.rows[idx].is_none(), "metric `{name}` reported twice");
        self.rows[idx] = Some(Row {
            name: name.to_string(),
            unit: self.declared[idx].unit.to_string(),
            value,
            iqr,
            samples,
        });
    }

    /// A single measured or counted value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(name, value, None, 1);
    }

    /// A timing reported as the median of `samples`, with their spread.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.put(
            name,
            stats::median(samples),
            Some(stats::iqr(samples)),
            samples.len(),
        );
    }

    /// Every declared metric the run did not report becomes 0: the
    /// workload never entered that code (see `spec::per_layer`).
    pub fn fill_unexercised(&mut self) {
        for (idx, m) in self.declared.iter().enumerate() {
            if self.rows[idx].is_none() {
                self.rows[idx] = Some(Row {
                    name: m.name.clone(),
                    unit: m.unit.to_string(),
                    value: 0.0,
                    iqr: None,
                    samples: 0,
                });
            }
        }
    }

    /// The rows in declaration order.
    ///
    /// # Errors
    ///
    /// Names every declared metric the run failed to report.
    pub fn finish(self) -> Result<Vec<Row>, String> {
        let missing: Vec<&str> = self
            .declared
            .iter()
            .zip(&self.rows)
            .filter(|(_, r)| r.is_none())
            .map(|(m, _)| m.name.as_str())
            .collect();
        if missing.is_empty() {
            Ok(self.rows.into_iter().flatten().collect())
        } else {
            Err(format!("metrics not reported: {}", missing.join(", ")))
        }
    }
}

/// The outcome of one `--workload … --trace …` run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Operations attempted: runs (or explorations), set-up ones included.
    pub attempted: u64,
    /// Operations that errored, failed their oracle, differed between the
    /// traced and the untraced path, or missed the frozen census.
    pub failed: u64,
    /// The first few failures, for the reader.
    pub failures: Vec<String>,
    pub rows: Vec<Row>,
    /// Free-form facts about the run (slices measured, seeds covered…).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The one-line result the driver reads: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    Json::obj([
                        ("value", Json::Float(r.value)),
                        ("unit", Json::Str(r.unit.clone())),
                    ]),
                )
            })
            .collect();
        one_line(&Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    /// The full detail (`iqr`, sample counts, notes, failures).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Int(self.seed as i64)),
            ("seconds", Json::Float(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "failed_share",
                Json::Float(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "metrics",
                Json::Arr(self.rows.iter().map(Row::to_json).collect()),
            ),
        ])
    }

    /// Parses [`Outcome::to_json`] back (the `all` command reads its
    /// children's detail files; `compare` reads `results.json`).
    pub fn from_json(doc: &Json) -> Result<Outcome, String> {
        let str_of = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("result lacks string `{k}`"))
        };
        let int_of = |k: &str| {
            doc.get(k)
                .and_then(Json::as_i64)
                .and_then(|i| u64::try_from(i).ok())
                .ok_or(format!("result lacks integer `{k}`"))
        };
        let strings = |k: &str| -> Vec<String> {
            doc.get(k)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let rows = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("result lacks `metrics`")?
            .iter()
            .map(Row::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Outcome {
            workload: str_of("workload")?,
            seed: int_of("seed")?,
            seconds: doc
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("result lacks `seconds`")?,
            traced: doc
                .get("traced")
                .and_then(Json::as_bool)
                .ok_or("result lacks `traced`")?,
            attempted: int_of("attempted")?,
            failed: int_of("failed")?,
            failures: strings("failures"),
            rows,
            notes: strings("notes"),
        })
    }

    /// Prints the run for a human: every metric by name with its unit.
    pub fn print_table(&self) {
        println!(
            "== {} · {} · seed {} · {} attempted, {} failed (failed_share {})",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for note in &self.notes {
            println!("   {note}");
        }
        for f in &self.failures {
            println!("   FAILED {f}");
        }
        for r in &self.rows {
            if r.samples == 0 {
                // Not exercised by this workload; the result line still
                // carries the 0 the contract asks for.
                continue;
            }
            match r.iqr {
                Some(iqr) => println!(
                    "   {:<44} {:>16.4} {:<6} iqr {:.4} over {} samples",
                    r.name, r.value, r.unit, iqr, r.samples
                ),
                None => println!("   {:<44} {:>16.4} {}", r.name, r.value, r.unit),
            }
        }
    }
}

impl Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("value", Json::Float(self.value)),
            ("unit", Json::Str(self.unit.clone())),
            ("iqr", self.iqr.map(Json::Float).unwrap_or(Json::Null)),
            ("samples", Json::Int(self.samples as i64)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Row, String> {
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric lacks `name`")?
            .to_string();
        let unit = doc
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("metric lacks `unit`")?
            .to_string();
        Ok(Row {
            value: doc
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("metric `{name}` lacks `value`"))?,
            iqr: doc.get("iqr").and_then(Json::as_f64),
            samples: doc
                .get("samples")
                .and_then(Json::as_i64)
                .map_or(1, |s| s as usize),
            name,
            unit,
        })
    }
}

/// `doc` on a single line. The harness writer only pretty-prints; its
/// strings escape newlines, so every raw newline is formatting.
pub fn one_line(doc: &Json) -> String {
    doc.pretty().lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut rows = Rows::new(spec::end_to_end());
        rows.set("setup_s", 0.4);
        assert!(rows.finish().is_err(), "unreported metrics are an error");

        let mut rows = Rows::new(spec::end_to_end());
        for m in spec::end_to_end() {
            rows.set_median(&m.name, &[1.5, 2.5, 3.5]);
        }
        let outcome = Outcome {
            workload: "fig_small".into(),
            seed: 3,
            seconds: 1.0,
            traced: false,
            attempted: 10,
            failed: 0,
            failures: vec![],
            rows: rows.finish().unwrap(),
            notes: vec!["a \"quoted\"\nnote".into()],
        };
        let line = outcome.result_line();
        assert!(!line.contains('\n'));
        let doc = scup_harness::json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<String> = spec::end_to_end().into_iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        for (_, m) in metrics {
            let Json::Obj(fields) = m else { panic!() };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }

        let back = Outcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(back.rows.len(), outcome.rows.len());
        assert_eq!(back.rows[0].iqr, outcome.rows[0].iqr);
        assert_eq!(back.notes, outcome.notes);
    }

    #[test]
    fn unexercised_layers_read_zero() {
        let mut rows = Rows::new(spec::per_layer());
        rows.set("sim.joins", 2.0);
        rows.fill_unexercised();
        let rows = rows.finish().unwrap();
        assert_eq!(rows.len(), spec::per_layer().len());
        assert!(rows.iter().any(|r| r.name == "sim.joins" && r.value == 2.0));
        assert!(rows
            .iter()
            .any(|r| r.name == "mc.reexpansions" && r.value == 0.0 && r.samples == 0));
    }
}
