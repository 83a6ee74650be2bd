//! The benchmark's self-test: every workload at a tiny size, checking
//! that the metrics `BENCHMARK.json` declares are the ones printed, that
//! the correctness gate fires on a wrong reference, and that the traced
//! phase and call self-times add up to each simulation's span.

use crate::measure::{self, fan_out, judge, Round, END_TO_END, PER_LAYER};
use crate::refs::References;
use crate::workloads::Workload;
use crate::{results_dir, run_workload, Host};
use std::path::PathBuf;
use viampi_bench::json::{self, Value};

/// Run the self-test; `Err` names the first check that failed.
pub fn run(host: &Host) -> Result<(), String> {
    check_declared("end_to_end", END_TO_END)?;
    check_declared("per_layer", PER_LAYER)?;
    for wl in Workload::ALL {
        let items = wl.items(true);
        let refs = References::load(&results_dir(), &items)?;
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let (outcome, rounds) = run_workload(&items, &refs, 0, 2, f64::INFINITY, traced, host)?;
            let v = &outcome.verdict;
            if v.failed > 0 {
                return Err(format!(
                    "{}: {} failed: {:?}",
                    wl.name(),
                    v.failed,
                    v.reasons
                ));
            }
            for &(name, unit) in table {
                if !outcome
                    .metrics
                    .iter()
                    .any(|m| m.name == name && m.unit == unit)
                {
                    return Err(format!("{}: metric {name} [{unit}] missing", wl.name()));
                }
            }
            rounds.iter().try_for_each(check_partition)?;
        }
        // The gate must fire when a committed value is wrong.
        let round = fan_out(&items, measure::order(items.len(), 0), 0, 1, 1.0);
        let (field, got) = match &round.runs[0].output {
            Ok(out) => out[0].clone(),
            Err(e) => return Err(e.clone()),
        };
        let wrong = match got {
            Value::Float(x) => Value::Float(x * 1.5 + 1.0),
            Value::Int(x) => Value::Int(x + 1),
            Value::Bool(b) => Value::Bool(!b),
            other => return Err(format!("unexpected output value {other:?}")),
        };
        let mut bad = refs.clone();
        let item = &items[round.runs[0].item];
        if !bad.set(item, field, wrong) {
            return Err(format!("{}: no reference field {field}", item.name()));
        }
        if judge(&items, &[&round], &bad, 0).failed != 1 {
            return Err(format!("{}: gate missed a wrong {field}", wl.name()));
        }
        println!("smoke {}: ok", wl.name());
    }
    Ok(())
}

/// Phases partition each traced simulation's span, and in the body phase
/// call and body self-times partition it again, to the nanosecond.
fn check_partition(round: &Round) -> Result<(), String> {
    for run in &round.runs {
        let t = &run.timeline;
        let calls = t.trace.as_ref().ok_or("traced round without call trace")?;
        let body: u64 = calls.body_self_ns + calls.call_self_ns.values().sum::<u64>();
        if t.setup_ns + t.body_ns + t.teardown_ns != t.span_ns || body != t.body_ns {
            return Err(format!(
                "simulation {}: span {} != setup {} + body {} (self {}) + teardown {}",
                run.item, t.span_ns, t.setup_ns, t.body_ns, body, t.teardown_ns
            ));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` must declare exactly the metrics the code prints.
fn check_declared(key: &str, table: &[(&str, &str)]) -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let declared: Vec<(String, String)> = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect();
    let printed: Vec<(String, String)> = table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    if declared != printed {
        return Err(format!(
            "BENCHMARK.json {key} {declared:?} != printed {printed:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        super::run(&crate::Host::detect()).expect("smoke self-test");
    }
}
