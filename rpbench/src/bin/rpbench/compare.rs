//! `rpbench compare A.jsonl B.jsonl`: applies the bounds in
//! `BENCHMARK.json` to two sets of untraced runs and prints one pass,
//! fail or unresolved row per (end-to-end metric, workload).
//!
//! Each input holds the records `--json FILE` appends, one JSON object
//! per line. A row passes when B's median is no worse than A's by more
//! than the bound. When either set's spread (interquartile distance
//! over median) exceeds the bound the row is unresolved, unless every
//! run of B reads better than every run of A.

use crate::stats::{median, spread};
use rpdbscan_json::Value;
use std::collections::BTreeMap;

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    Unresolved,
}

/// Values of one set: (workload, metric) → one value per run.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn parse_file(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object().and_then(|o| o.get(key))
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn rules(bench: &Value) -> Result<Vec<Rule>, String> {
    let list = field(bench, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = match field(m, "name") {
                Some(Value::String(s)) => s.clone(),
                _ => return Err("end_to_end entry without a name".to_string()),
            };
            let lower_is_better =
                matches!(field(m, "better"), Some(Value::String(s)) if s == "lower");
            let bound = number(field(m, "bound")).ok_or(format!("{name}: no bound"))?;
            Ok(Rule {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// Reads the untraced records of a `--json` file.
fn runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Value::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if matches!(field(&rec, "trace"), Some(Value::Bool(true))) {
            continue;
        }
        let Some(Value::String(workload)) = field(&rec, "workload") else {
            return Err(format!("{path}:{}: record without a workload", i + 1));
        };
        let metrics = field(&rec, "result")
            .and_then(|r| field(r, "metrics"))
            .and_then(Value::as_object)
            .ok_or(format!("{path}:{}: record without metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = number(field(m, "value")) {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Judges B against A under `rule`.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse = if lower_is_better { mb - ma } else { ma - mb };
    let too_wide = |v: &[f64]| spread(v).is_none_or(|s| s > bound);
    if too_wide(a) || too_wide(b) {
        let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
        let b_dominates = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
        return if b_dominates {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound * ma.abs() {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

/// Runs the subcommand; `Ok(false)` when any row fails.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench_path = it.next().ok_or("--bench needs a file")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: rpbench compare A.jsonl B.jsonl [--bench BENCHMARK.json]".into());
    };
    let rules = rules(&parse_file(&bench_path)?)?;
    let (a, b) = (runs(a_path)?, runs(b_path)?);
    let mut workloads: Vec<&String> = a.keys().chain(b.keys()).map(|(w, _)| w).collect();
    workloads.sort();
    workloads.dedup();
    println!(
        "{:<14} {:<12} {:>5} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "median A", "median B", "change", "sprd A", "sprd B", "bound"
    );
    let mut all_pass = true;
    for w in workloads {
        for r in &rules {
            let key = (w.clone(), r.name.clone());
            let va = a.get(&key).map_or(&[][..], Vec::as_slice);
            let vb = b.get(&key).map_or(&[][..], Vec::as_slice);
            let v = verdict(va, vb, r.lower_is_better, r.bound);
            all_pass &= v != Verdict::Fail;
            let (ma, mb) = (median(va), median(vb));
            let pct = |x: Option<f64>| x.map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
            println!(
                "{:<14} {:<12} {:>2}/{:<2} {:>12.4} {:>12.4} {:>8} {:>8} {:>8} {:>6}  {}",
                w,
                r.name,
                va.len(),
                vb.len(),
                ma,
                mb,
                pct((ma.abs() > 0.0).then(|| (mb - ma) / ma)),
                pct(spread(va)),
                pct(spread(vb)),
                pct(Some(r.bound)),
                match v {
                    Verdict::Pass => "pass",
                    Verdict::Fail => "FAIL",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_decide_pass_and_fail() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&a, &[105.0, 106.0, 104.0], true, 0.1),
            Verdict::Pass
        );
        assert_eq!(
            verdict(&a, &[115.0, 116.0, 114.0], true, 0.1),
            Verdict::Fail
        );
        // Higher is better: a drop beyond the bound fails.
        assert_eq!(verdict(&a, &[85.0, 86.0, 84.0], false, 0.1), Verdict::Fail);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_dominates() {
        let a = [50.0, 100.0, 150.0, 80.0, 120.0];
        assert_eq!(verdict(&a, &[100.0, 100.0], true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&a, &[10.0, 20.0], true, 0.1), Verdict::Pass);
    }
}
