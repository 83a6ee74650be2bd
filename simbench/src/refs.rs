//! The correctness gate's reference side: the committed `results/*.json`
//! records every simulation's output is compared with.

use crate::workloads::{Item, Output};
use std::collections::BTreeMap;
use std::path::Path;
use viampi_bench::json::{self, Value};

/// The committed records a workload's simulations refer to.
#[derive(Clone, Debug)]
pub struct References {
    files: BTreeMap<&'static str, Value>,
}

impl References {
    /// Load every record the items refer to from `results_dir`.
    pub fn load(results_dir: &Path, items: &[Item]) -> Result<References, String> {
        let mut files = BTreeMap::new();
        for item in items {
            let (file, _) = item.reference();
            if files.contains_key(file) {
                continue;
            }
            let path = results_dir.join(format!("{file}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
            let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            files.insert(file, value);
        }
        Ok(References { files })
    }

    /// Compare one simulated output with its committed point. Every field
    /// must match exactly at the default seed; at other seeds the engine's
    /// tie-break differs, so only schedule-invariant fields must.
    pub fn check(&self, item: &Item, out: &Output, default_seed: bool) -> Result<(), String> {
        let (file, keys) = item.reference();
        let point = self
            .files
            .get(file)
            .and_then(Value::as_arr)
            .and_then(|points| Some(&points[find(points, &keys)?]))
            .ok_or_else(|| format!("{}: no point in results/{file}.json", item.name()))?;
        for (field, got) in out {
            if !default_seed && !Item::schedule_invariant(field) {
                continue;
            }
            let want = point.get(field);
            if want != Some(got) {
                return Err(format!(
                    "{}: {field} = {} but results/{file}.json has {}",
                    item.name(),
                    render(got),
                    want.map_or("nothing".into(), render)
                ));
            }
        }
        Ok(())
    }

    /// Replace the committed value of `field` for `item` (the self-test
    /// uses this to prove the gate fires on a wrong reference).
    pub fn set(&mut self, item: &Item, field: &str, value: Value) -> bool {
        let (file, keys) = item.reference();
        let Some(Value::Arr(points)) = self.files.get_mut(file) else {
            return false;
        };
        match find(points, &keys).map(|i| &mut points[i]) {
            Some(Value::Obj(fields)) => match fields.iter_mut().find(|(k, _)| k == field) {
                Some((_, v)) => {
                    *v = value;
                    true
                }
                None => false,
            },
            _ => false,
        }
    }
}

/// Index of the record point whose key fields all equal `keys`.
fn find(points: &[Value], keys: &[(&str, Value)]) -> Option<usize> {
    points
        .iter()
        .position(|p| keys.iter().all(|(k, v)| p.get(k) == Some(v)))
}

/// Canonical text of one output value (floats in shortest round-trip form).
pub fn render(v: &Value) -> String {
    match v {
        Value::Float(x) => {
            let mut s = String::new();
            json::emit_f64(&mut s, *x);
            s
        }
        Value::Int(x) => x.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => format!("{s:?}"),
        other => format!("{other:?}"),
    }
}

/// Canonical text of a whole output, for byte-identity across repeats.
pub fn render_output(out: &Output) -> String {
    out.iter()
        .map(|(k, v)| format!("{k}={}", render(v)))
        .collect::<Vec<_>>()
        .join(" ")
}
