//! The agreement table: two full sets of runs of one commit, compared
//! metric by metric against the bounds `BENCHMARK.json` fixes.

use wino_probe::{parse_json, Json};

use crate::Res;

/// `(b − a) ÷ a`, signed so that positive means `b` is worse.
pub fn worse_share(a: f64, b: f64, better: &str) -> f64 {
    let rel = (b - a) / a;
    if better == "higher" {
        // Not `-rel`: equal values should read +0.0 %.
        0.0 - rel
    } else {
        rel
    }
}

/// Six decimals, or three significant digits for an error ratio.
fn shown(v: f64) -> String {
    if v.abs() >= 1e-3 {
        format!("{v:.6}")
    } else {
        format!("{v:.3e}")
    }
}

fn read(path: &str) -> Res<Json> {
    Ok(parse_json(
        &std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
    )?)
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Res<&'a Json> {
    path.iter().try_fold(doc, |d, key| {
        d.get(key).ok_or_else(|| format!("no field {key}").into())
    })
}

/// Set-up takes 15 to 50 ms, where a quarter is a few milliseconds of
/// host noise: a single pair also passes inside the issue's absolute
/// allowance for `setup_s` ("+25 % or +10 ms, whichever is larger").
const SETUP_SLACK_S: f64 = 0.010;

/// Print, per workload and end-to-end metric, both values, how much
/// worse the second is, the bound, and pass or fail. `Ok(false)` when
/// any pair differs by more than its bound in either direction.
pub fn table(summary_a: &str, summary_b: &str, benchmark_json: &str) -> Res<bool> {
    let (a, b, spec) = (read(summary_a)?, read(summary_b)?, read(benchmark_json)?);
    let mut all_pass = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for w in field(&spec, &["workloads"])?
        .as_arr()
        .ok_or("workloads is not a list")?
    {
        let w = field(w, &["name"])?
            .as_str()
            .ok_or("workload name is not text")?;
        for m in field(&spec, &["end_to_end"])?
            .as_arr()
            .ok_or("end_to_end is not a list")?
        {
            let name = field(m, &["name"])?
                .as_str()
                .ok_or("metric name is not text")?;
            let better = field(m, &["better"])?
                .as_str()
                .ok_or("better is not text")?;
            let bound = field(m, &["bound"])?
                .as_f64()
                .ok_or("bound is not a number")?;
            let value = |doc: &Json| -> Res<f64> {
                let v = field(doc, &["workloads", w, "result", "metrics", name, "value"])?;
                Ok(v.as_f64().ok_or("value is not a number")?)
            };
            let (va, vb) = (value(&a)?, value(&b)?);
            let worse = worse_share(va, vb, better);
            let pass =
                worse.abs() <= bound || (name == "setup_s" && (vb - va).abs() <= SETUP_SLACK_S);
            all_pass &= pass;
            println!(
                "{w:<14} {name:<18} {:>14} {:>14} {:>+8.1}% {:>5.0}%  {}",
                shown(va),
                shown(vb),
                worse * 100.0,
                bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}
