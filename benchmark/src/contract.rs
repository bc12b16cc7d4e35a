//! What `../BENCHMARK.json` declares: the workloads, and every metric's
//! name, unit, direction and bound. It is the only list of metrics — a
//! run reports in its order and fails if what it measured is not exactly
//! what is declared, and `compare` judges with its bounds.

use crate::Metric;
use std::path::Path;
use valley_sim::json::{self, Json};

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Contract {
    /// Reads `<root>/BENCHMARK.json`.
    pub fn load(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Contract::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("no '{key}' list"))
        };
        let field = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry has no '{key}' string"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = field(m, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("'better' is '{better}', not lower or higher"));
                    }
                    Ok(Declared {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        lower_is_better: better == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// `measured` in the order of `declared`. A declared metric that was not
/// measured, a measured one that is not declared, or a unit that differs
/// is an error: a metric that silently went missing would read as "no
/// data" in every later comparison.
pub fn in_declared_order(
    measured: &[Metric],
    declared: &[Declared],
) -> Result<Vec<Metric>, String> {
    let ordered = declared
        .iter()
        .map(|d| {
            let m = measured
                .iter()
                .find(|m| m.0 == d.name)
                .ok_or_else(|| format!("declared metric {} was not measured", d.name))?;
            if m.2 != d.unit {
                return Err(format!(
                    "{} is measured in {} but declared in {}",
                    d.name, m.2, d.unit
                ));
            }
            Ok(m.clone())
        })
        .collect::<Result<Vec<_>, _>>()?;
    match measured
        .iter()
        .find(|m| !declared.iter().any(|d| d.name == m.0))
    {
        Some(extra) => Err(format!(
            "measured metric {} is not declared in BENCHMARK.json",
            extra.0
        )),
        None => Ok(ordered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric;

    const DOC: &str = r#"{
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "sim.cycles", "unit": "count", "better": "lower"},
                      {"name": "cache.hit_ratio", "unit": "ratio", "better": "higher"}]
    }"#;

    #[test]
    fn parses_the_three_lists() {
        let c = Contract::parse(DOC).unwrap();
        assert_eq!(c.workloads, ["a", "b"]);
        assert_eq!(c.end_to_end[0].bound, Some(0.25));
        assert!(c.end_to_end[0].lower_is_better);
        assert_eq!(c.per_layer[1].name, "cache.hit_ratio");
        assert!(!c.per_layer[1].lower_is_better);
        assert_eq!(c.per_layer[1].bound, None);
        assert!(Contract::parse(r#"{"workloads": []}"#).is_err());
    }

    #[test]
    fn measured_metrics_must_be_exactly_the_declared_ones() {
        let declared = Contract::parse(DOC).unwrap().per_layer;
        let hit = metric("cache.hit_ratio", 0.5, "ratio");
        let cycles = metric("sim.cycles", 7.0, "count");
        let ordered = in_declared_order(&[hit.clone(), cycles.clone()], &declared).unwrap();
        assert_eq!(ordered, [cycles.clone(), hit.clone()]);
        assert!(in_declared_order(std::slice::from_ref(&hit), &declared)
            .unwrap_err()
            .contains("sim.cycles was not measured"));
        let extra = metric("sim.txns", 1.0, "count");
        assert!(in_declared_order(&[hit.clone(), cycles, extra], &declared)
            .unwrap_err()
            .contains("sim.txns is not declared"));
        let wrong_unit = metric("sim.cycles", 7.0, "ns");
        assert!(in_declared_order(&[hit, wrong_unit], &declared)
            .unwrap_err()
            .contains("declared in count"));
    }
}
