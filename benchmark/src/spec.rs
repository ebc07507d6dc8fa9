//! The declarations in `../BENCHMARK.json`, compiled into the binary so
//! that every name and unit the harness prints has one source.

use sqm::obs::json::{self, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the reference by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

fn str_field(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key:?}"))
        .to_string()
}

fn array<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing array {key:?}"))
}

fn metrics(v: &JsonValue, key: &str) -> Vec<MetricDecl> {
    array(v, key)
        .iter()
        .map(|m| MetricDecl {
            name: str_field(m, "name"),
            unit: str_field(m, "unit"),
            better: str_field(m, "better"),
            bound: m.get("bound").and_then(JsonValue::as_f64),
        })
        .collect()
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`. A malformed file is a bug in
    /// this repository, so it panics with the reason.
    pub fn load() -> Spec {
        let v = json::parse(BENCHMARK_JSON)
            .unwrap_or_else(|e| panic!("BENCHMARK.json is not valid JSON: {e:?}"));
        Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .expect("BENCHMARK.json: missing run_seconds"),
            workloads: array(&v, "workloads")
                .iter()
                .map(|w| str_field(w, "name"))
                .collect(),
            end_to_end: metrics(&v, "end_to_end"),
            per_layer: metrics(&v, "per_layer"),
        }
    }

    /// The metrics a run with `--trace <traced>` must report.
    pub fn metrics(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let spec = Spec::load();
        let mut names: Vec<&String> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .collect();
        for name in &names {
            assert!(well_formed(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
    }

    #[test]
    fn end_to_end_metrics_carry_bounds_and_setup_has_the_largest() {
        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
